"""Projective covers, resolutions, syzygies, Ext/Tor, bounded semi-
Gorenstein-projectivity.

Resolutions are built from idempotent-column projectives Ae (or eA on the
right), one slot per generator: P_i is assembled from the slot blocks, with
block-diagonal actions, and each differential is stored as the algebra
elements it sends each slot generator to, one per slot of P_{i-1}.  That
makes Hom(P, N) = eN and u (x) P = ue concrete coordinate spaces, so Ext and
Tor complexes never solve intertwiner systems: every differential is one
slot-block matrix of multiplications by stored algebra elements
(_slot_block_matrix).  A cover is minimal exactly when each of its slots has
a one-dimensional top, a fact computed once per slot type.

The kernel of each differential, the next syzygy, is read off the slots too
(_kernel_module).  Its basis K is the kernel basis of the differential,
which is the identity on the free (non-pivot) rows, so an algebra element
acts on the kernel by the free rows of a.K.  a.K is formed one slot block
at a time from the small slot modules' actions, and the pivot rows of a.K
are checked exactly against K times that action, which holds exactly when
K is invariant.
"""

import threading

from .algebra import regular_modules
from .errors import ValidationError
from .linalg import Eliminator, Matrix, SpanAccumulator
from .modules import (
    Module,
    ModuleMap,
    Verdict,
    generated_span,
    idempotent_slice,
    is_isomorphic,
    radical_image,
    submodule_generated,
    zero_module,
)


# ---------------------------------------------------------------------------
# projective slots


class SlotType:
    """One indecomposable-projective shape Ae (left) or eA (right): the block
    that every slot of this shape contributes to a projective P_i."""

    __slots__ = ("e_index", "e_vec", "module", "basis_in_A", "gen_coord", "_top_dim")

    def __init__(self, e_index, e_vec, module, basis_in_A, gen_coord):
        self.e_index = e_index        # idempotent index, None = unit (free slot)
        self.e_vec = e_vec
        self.module = module
        self.basis_in_A = basis_in_A  # columns: the slot basis as elements of A
        self.gen_coord = gen_coord    # coordinates of e in the slot basis
        self._top_dim = None

    @property
    def dim(self):
        return self.module.dim

    @property
    def top_dim(self):
        """dim slot - dim J.slot; a cover is minimal iff this is 1 for every slot."""
        if self._top_dim is None:
            self._top_dim = self.dim - radical_image(self.module).dim
        return self._top_dim


def slot_type(algebra, side, e_index):
    cache = algebra._cache.setdefault("slot_types", {})
    key = (side, e_index)
    st = cache.get(key)
    if st is not None:
        return st
    reg = regular_modules(algebra)[0 if side == "left" else 1]
    field = algebra.field
    if e_index is None:
        st = SlotType(
            None,
            tuple(algebra.unit),
            reg,
            Matrix.identity(field, algebra.dim),
            list(algebra.unit),
        )
    else:
        e = list(algebra.idempotents[e_index])
        sub, incl = submodule_generated(reg, [e], label=f"P[e{e_index}]")
        gen = Eliminator(incl.matrix).solve(e)
        st = SlotType(e_index, tuple(e), sub, incl.matrix, gen)
    return cache.setdefault(key, st)


def _e_part_of_module(n, e_index):
    """(basis matrix, Eliminator) of eN inside N; identity shortcut for e=1."""
    cache = n._cache.setdefault("e_parts", {})
    got = cache.get(e_index)
    if got is not None:
        return got
    if e_index is None:
        got = (Matrix.identity(n.field, n.dim), None)
    else:
        got = idempotent_slice(n, n.algebra.idempotents[e_index])
    cache[e_index] = got
    return got


def _e_coords(n, e_index, vec):
    basis, solver = _e_part_of_module(n, e_index)
    if solver is None:
        return list(vec)
    sol = solver.solve(list(vec))
    if sol is None:
        raise ValidationError("vector not in the idempotent part")
    return sol


def _e_dim(n, st):
    return _e_part_of_module(n, st.e_index)[0].ncols


def _slot_block_matrix(n, src_slots, tgt_slots, lam):
    """Matrix of (+)_s e_s N -> (+)_t e_t N whose block from source slot s to
    target slot t is v -> lam(s, t) . v.  Columns run over (source slot, basis
    vector of its e-part), rows over the e-coordinates of each target slot."""
    field = n.field
    cols = []
    for s, st in enumerate(src_slots):
        basis, _ = _e_part_of_module(n, st.e_index)
        vecs = [list(basis.column(b)) for b in range(basis.ncols)]
        outs = [[] for _ in vecs]
        for t, tt in enumerate(tgt_slots):
            elem = lam(s, t)
            if any(elem):
                act = n.action_of_vector(elem)
                for out, v in zip(outs, vecs):
                    out.extend(_e_coords(n, tt.e_index, act.apply(v)))
            else:
                zeros = [field.zero] * _e_dim(n, tt)
                for out in outs:
                    out.extend(zeros)
        cols.extend(outs)
    return Matrix.from_columns(field, cols, sum(_e_dim(n, tt) for tt in tgt_slots))


def _slot_image_columns(x, p, st):
    """Columns a_l . p in x over the basis a_l of slot st: the images of the
    slot basis under the map slot -> x sending its generator to p.  They are
    the rows of B^T R, where B holds the a_l as columns and row i of R is
    b_i . p for the algebra basis b_i."""
    applied = Matrix(x.field, [act.apply(p) for act in x.actions], x.dim)
    return (st.basis_in_A.transpose() * applied).rows


def _homology_dim(dims, maps, i):
    """dims[i] - rank of the map between degrees i and i+1 - rank of the map
    between i-1 and i; maps[k] joins degrees k and k+1 in either direction,
    and a map missing past the end counts as zero."""
    out = dims[i] - (maps[i].rank() if i < len(maps) else 0)
    return out - maps[i - 1].rank() if i else out


# ---------------------------------------------------------------------------
# resolutions


class _Step:
    """One term P_i = (+) slots, assembled block-diagonally from the slot
    modules, with its differential and the kernel of that differential.
    The kernel's actions are the free rows of a.K, formed slot block by slot
    block, after a check of the pivot rows (_kernel_module)."""

    __slots__ = ("slot_types", "offsets", "proj", "d_matrix", "d_elems",
                 "kernel", "kernel_incl")

    def __init__(self, slot_types, offsets, proj, d_matrix):
        self.slot_types = slot_types
        self.offsets = offsets        # first coordinate of each slot block in P_i
        self.proj = proj
        self.d_matrix = d_matrix      # P_i -> P_{i-1} (or -> target for i = 0)
        self.d_elems = None           # [slot of P_i][slot of P_{i-1}] A-vectors; None at step 0
        self.kernel = None            # filled when the next step is built
        self.kernel_incl = None

    def gen_vector(self, j):
        """The generator of slot j as a vector of P_i."""
        v = [self.proj.field.zero] * self.proj.dim
        off = self.offsets[j]
        for l, c in enumerate(self.slot_types[j].gen_coord):
            v[off + l] = c
        return v


class Resolution:
    """Internal resolution state; extended lazily and cached on the module.
    Its own lock serializes extensions, so resolving one module never waits
    on another.  Step 0 is built here, so the resolution keeps no reference
    to its target: the module's cache holds the resolution, and a reference
    back would be a cycle that only the cyclic garbage collector frees."""

    def __init__(self, target, minimal):
        self.minimal = minimal
        self.steps = []
        self._lock = threading.Lock()
        self._add_step(target)

    def proj(self, i):
        return self.steps[i].proj

    def extend_to(self, n_steps):
        """Ensure steps 0..n_steps exist."""
        with self._lock:
            while len(self.steps) <= n_steps:
                self._add_step(self.steps[-1].kernel)
        return self

    def _add_step(self, m):
        """Cover m, the target at step 0 and the last kernel after it."""
        step = _build_cover_step(m, self.minimal)
        if self.steps:
            prev = self.steps[-1]
            # d_i = (kernel inclusion) o (cover of the kernel)
            step.d_matrix = prev.kernel_incl.matrix * step.d_matrix
            step.d_elems = _elem_grid(step.d_matrix, step, prev)
            # exactness bookkeeping: im(d_i) = ker(d_{i-1}) by construction
            assert (prev.d_matrix * step.d_matrix).is_zero()
        self.steps.append(step)
        # precompute the next kernel so syzygies line up with step indices
        step.kernel, step.kernel_incl = _kernel_module(step)

    def syzygy(self, i):
        """Omega^i of the target (i >= 1)."""
        if i < 1:
            raise ValueError("syzygy index must be >= 1")
        self.extend_to(i - 1)
        return self.steps[i - 1].kernel


def _build_cover_step(m, minimal):
    algebra = m.algebra
    field = m.field
    if minimal:
        gens = _minimal_generators(m)
    else:
        # free covers: slots are copies of the whole algebra; use a
        # minimal-size generating set when the radical is known
        try:
            gens = [(None, g) for (_e, g) in _minimal_generators(m)]
        except ValidationError:
            gens = [(None, g) for g in _free_generators(m)]
    if not gens:
        return _Step([], [], zero_module(algebra, m.side), Matrix.from_columns(field, [], m.dim))
    slot_types = [slot_type(algebra, m.side, e_idx) for (e_idx, _) in gens]
    # The cover sends J.P onto J.m and the generators lift a basis of top(m),
    # so its kernel lies in rad(P) exactly when every slot has a 1-dim top.
    if minimal and any(st.top_dim != 1 for st in slot_types):
        raise ValidationError("minimal-unavailable: kernel escapes rad(P)")
    acts = [
        Matrix.block_diag(field, [st.module.actions[i] for st in slot_types])
        for i in range(algebra.dim)
    ]
    proj = Module(algebra, m.side, sum(st.dim for st in slot_types), acts, label="P")
    offsets = []
    off = 0
    for st in slot_types:
        offsets.append(off)
        off += st.dim
    cols = []
    for (_e, g), st in zip(gens, slot_types):
        cols.extend(_slot_image_columns(m, g, st))
    dmat = Matrix.from_columns(field, cols, m.dim)
    if dmat.rank() != m.dim:
        raise ValidationError("cover is not surjective")  # cannot happen
    return _Step(slot_types, offsets, proj, dmat)


def _free_generators(m):
    """Vectors generating m, for free covers when the radical is unknown.

    The candidates are the columns of the idempotent actions (the basis
    vectors when there are no idempotents).  They are tried in order of the
    dimension of the submodule each generates, largest first, and one that
    the earlier picks already generate is skipped.  The order matters: taken
    in basis order, the picks for the regular module of T2(k[x]/(x^2)) over
    GF(2), free of rank 1, give P_0 of dimension 12 instead of 6, and every
    later term 12 instead of 0.  The t-th picks of the idempotent parts are
    summed into one generator g: the idempotents are orthogonal, so e times g
    is the pick in part e, and the one free slot of g covers what the picks
    generate."""
    field = m.field
    idempotents = m.algebra.idempotents or [m.algebra.unit]
    candidates = []
    for k, e in enumerate(idempotents):
        for v in m.action_of_vector(list(e)).columns():
            span = generated_span(m, [v])
            if span.dim:
                candidates.append((-span.dim, k, v, span))
    candidates.sort(key=lambda c: c[0])
    generated = SpanAccumulator(field, m.dim)
    picks = [[] for _ in idempotents]
    for _neg_dim, k, v, span in candidates:
        if not generated.contains(v):
            picks[k].append(v)
            for row in span.rows:
                generated.add(row)
    gens = []
    for t in range(max(map(len, picks))):
        g = [field.zero] * m.dim
        for part in picks:
            if t < len(part):
                g = [field.add(x, y) for x, y in zip(g, part[t])]
        gens.append(g)
    return gens


def _minimal_generators(m):
    """(idempotent index, generator vector) pairs lifting a basis of top(m)."""
    algebra = m.algebra
    if algebra.idempotents is None:
        raise ValidationError("minimal-unavailable: algebra has no idempotents")
    field = m.field
    rad_image = radical_image(m)  # raises when the radical is unavailable
    if m.dim == 0:
        return []
    top_dim = m.dim - rad_image.dim
    gens = []
    for e_idx, e in enumerate(algebra.idempotents):
        E = m.action_of_vector(list(e))
        projected = Matrix.from_columns(
            field, [rad_image.project(E.column(j)) for j in range(m.dim)], top_dim
        )
        for j in projected.pivot_columns():
            gens.append((e_idx, E.column(j)))
    if len(gens) != top_dim:
        raise ValidationError(
            "minimal-unavailable: idempotent parts do not exhaust the top"
        )
    return gens


def _kernel_module(step):
    """(ker d_i as a module, its inclusion into P_i), read from the slots.

    K = d_matrix.kernel_matrix() is the identity on the free (non-pivot)
    rows of d_matrix, so the action X of a basis vector a of the algebra on
    the kernel is the free rows of a.K, and K is a-invariant exactly when
    the pivot rows of a.K equal those of K.X.  a acts on P_i slot by slot,
    so each slot block of a.K is the slot module's action on that block of
    K: no P_i-sized product and no solve."""
    d = step.d_matrix
    field = d.field
    z = field.zero
    K = d.kernel_matrix()
    k = K.ncols
    pivots = d.pivot_columns()
    pivset = set(pivots)
    free = [j for j in range(d.ncols) if j not in pivset]
    k_rows = K.rows
    k_supports = [[c for c, x in enumerate(row) if x] for row in k_rows]
    acts = []
    for i in range(step.proj.algebra.dim):
        aK = []  # the rows of a_i.K
        for st, off in zip(step.slot_types, step.offsets):
            for arow in st.module.actions[i].rows:
                acc = [z] * k
                for l, a in enumerate(arow):
                    if a:
                        krow, support = k_rows[off + l], k_supports[off + l]
                        for c in support:
                            acc[c] += a * krow[c]
                        field.reduce(acc, support)
                aK.append(tuple(acc))
        X = tuple(aK[f] for f in free)
        x_supports = [None] * k  # nonzero positions of each row of X, on first use
        for pc in pivots:
            acc = [z] * k
            krow = k_rows[pc]
            for c in k_supports[pc]:
                x, xrow = krow[c], X[c]
                support = x_supports[c]
                if support is None:
                    support = x_supports[c] = [j for j, y in enumerate(xrow) if y]
                for j in support:
                    acc[j] += x * xrow[j]
                field.reduce(acc, support)
            if tuple(acc) != aK[pc]:
                raise ValidationError("subspace is not action-invariant", witness=i)
        acts.append(Matrix._trusted(field, X, k))
    sub = Module(step.proj.algebra, step.proj.side, k, acts)
    return sub, ModuleMap(sub, step.proj, K, check=False)


def _elem_grid(matrix, src, tgt):
    """grid[j][j2]: the image under matrix (P(src) -> P(tgt)) of the generator
    of slot j, as an algebra element in slot j2."""
    grid = []
    for j in range(len(src.slot_types)):
        w = matrix.apply(src.gen_vector(j))
        grid.append([
            st2.basis_in_A.apply(w[off2: off2 + st2.dim])
            for st2, off2 in zip(tgt.slot_types, tgt.offsets)
        ])
    return grid


def resolution(m, minimal=None, length=0):
    """Cached internal resolution, extended to `length` steps.  By default
    it uses minimal covers whenever the algebra supports them."""
    if minimal is None:
        minimal = m.algebra.has_idempotents_and_radical()
    key = ("resolution", bool(minimal))
    res = m._cache.get(key)
    if res is None:
        res = m._cache.setdefault(key, Resolution(m, minimal))
    res.extend_to(length)
    return res


class ProjResolution:
    """Public resolution view: terms P_0..P_n, differentials, augmentation."""

    def __init__(self, target, terms, differentials, augmentation, minimal):
        self.target = target
        self.terms = terms
        self.differentials = differentials  # d_i : P_i -> P_{i-1}, i >= 1
        self.augmentation = augmentation    # P_0 -> target
        self.minimal = minimal

    def check_certificates(self):
        """d o d = 0, surjective augmentation, exactness rank identities,
        and (when minimal) images inside the radicals.  Raises on failure."""
        if not self.augmentation.is_surjective():
            raise ValidationError("augmentation is not surjective")
        prev = self.augmentation
        for d in self.differentials:
            if not (prev.matrix * d.matrix).is_zero():
                raise ValidationError("differentials do not compose to zero")
            prev = d
        # exactness at internal positions: im(d_{i+1}) = ker(d_i)
        for i in range(len(self.differentials) - 1):
            ker_dim = self.differentials[i].source.dim - self.differentials[i].rank()
            if self.differentials[i + 1].rank() != ker_dim:
                raise ValidationError(f"resolution inexact at position {i + 1}")
        if self.differentials:
            if self.differentials[0].rank() != self.terms[0].dim - self.augmentation.rank():
                raise ValidationError("resolution inexact at position 0")
        if self.minimal:
            for d in self.differentials:
                if not _image_in_radical(d):
                    raise ValidationError("minimal resolution image escapes the radical")
        return True

    def syzygy(self, i):
        res = resolution(self.target, self.minimal, i - 1)
        return res.syzygy(i)


def _image_in_radical(d):
    acc = radical_image(d.target)
    return all(acc.contains(d.matrix.column(j)) for j in range(d.matrix.ncols))


def resolve(m, n, minimal=True):
    """A projective resolution P_0..P_n of m.

    minimal=True needs idempotents + a computable radical; otherwise use
    minimal=False for generator-spanned free covers.
    """
    if n < 0:
        raise ValueError("resolution length must be >= 0")
    res = resolution(m, minimal, n)
    terms = [res.proj(i) for i in range(n + 1)]
    diffs = [
        ModuleMap(res.proj(i), res.proj(i - 1), res.steps[i].d_matrix, check=False)
        for i in range(1, n + 1)
    ]
    aug = ModuleMap(res.proj(0), m, res.steps[0].d_matrix, check=False)
    return ProjResolution(m, terms, diffs, aug, minimal)


# ---------------------------------------------------------------------------
# Hom complexes and Ext


class HomComplex:
    """Coordinates of Hom(P_i, n) = (+)_slots eN over a resolution of m.

    deltas[i-1] is the matrix of Hom(P_{i-1}, n) -> Hom(P_i, n), h -> h o d_i,
    assembled from the stored algebra elements of each differential.
    """

    def __init__(self, res, n, upto):
        self.res = res
        self.n = n
        self.upto = -1
        self.space_dims = []
        self.deltas = []
        self.ensure(upto)

    def ensure(self, upto):
        """Extend the complex to cover Hom(P_0..P_upto, n)."""
        if upto <= self.upto:
            return self
        self.res.extend_to(upto)
        steps = self.res.steps
        for i in range(self.upto + 1, upto + 1):
            self.space_dims.append(sum(_e_dim(self.n, st) for st in steps[i].slot_types))
            if i >= 1:
                self.deltas.append(_slot_block_matrix(
                    self.n, steps[i - 1].slot_types, steps[i].slot_types,
                    lambda j2, j: steps[i].d_elems[j][j2]))
        self.upto = upto
        return self

    def ext_dim(self, i):
        """dim Ext^i(m, n), valid for 0 <= i <= upto - 1."""
        return _homology_dim(self.space_dims, self.deltas, i)

    def cohomology(self, i):
        """(cocycle basis K in C_i coords, span of the coboundaries in K
        coords) at degree i: cohomology is the quotient by that span."""
        field = self.n.field
        K = self.deltas[i].kernel_matrix() if i < len(self.deltas) else Matrix.identity(
            field, self.space_dims[i]
        )
        # image of delta_{i-1} expressed inside the kernel
        boundaries = SpanAccumulator(field, K.ncols)
        if i > 0:
            sols = Eliminator(K).solve_matrix(self.deltas[i - 1])
            if sols is None:
                raise ValidationError("image escapes kernel: complex broken")
            boundaries.add_columns(sols)
        return K, boundaries


class ExtTable:
    """dims[i] = dim Ext^i(source, target) for 0 <= i <= bound."""

    __slots__ = ("source", "target", "dims")

    def __init__(self, source, target, dims):
        self.source = source
        self.target = target
        self.dims = list(dims)

    def __repr__(self):
        return f"ExtTable({self.dims})"


def hom_complex(m, n, bound, minimal=None):
    res = resolution(m, minimal, bound + 1)
    return HomComplex(res, n, bound + 1)


def ext_dims(m, n, bound, minimal=None):
    """Ext^0..Ext^bound of (m, n); same side and algebra required."""
    if m.algebra is not n.algebra or m.side != n.side:
        raise ValidationError("ext_dims needs one algebra and side")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if m.dim == 0:
        return ExtTable(m, n, [0] * (bound + 1))
    C = hom_complex(m, n, bound, minimal)
    return ExtTable(m, n, [C.ext_dim(i) for i in range(bound + 1)])


def hom_space_via_presentation(m, n):
    """Basis matrices of Hom(m, n) from a projective presentation of m: the
    reference that hom_space_direct is checked against."""
    res = resolution(m, length=1)
    C = HomComplex(res, n, 1)
    K = C.deltas[0].kernel_matrix()
    field = n.field
    step0 = res.steps[0]
    # preimages of the m-basis under the augmentation
    aug_solver = Eliminator(step0.d_matrix)
    pre = aug_solver.solve_matrix(Matrix.identity(field, m.dim))
    mats = []
    for j in range(K.ncols):
        coords = list(K.column(j))
        # f : P_0 -> n from per-slot eN coordinates
        fcols = []
        pos = 0
        for st in step0.slot_types:
            basis, _ = _e_part_of_module(n, st.e_index)
            nvec = basis.apply(coords[pos: pos + basis.ncols])
            pos += basis.ncols
            fcols.extend(_slot_image_columns(n, nvec, st))
        fmat = Matrix.from_columns(field, fcols, n.dim)
        mats.append(fmat * pre)
    return mats


# ---------------------------------------------------------------------------
# Tor


def tor_dims(u, x, bound, minimal=None):
    """Tor_0..Tor_bound of (u, x) for u right, x left over one algebra.

    Computed from a resolution of x: u (x) P collapses to ue-spaces with
    differentials acting by right multiplication.
    """
    if u.side != "right" or x.side != "left":
        raise ValidationError("tor_dims needs (right module, left module)")
    if u.algebra is not x.algebra:
        raise ValidationError("tor_dims needs one algebra")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if x.dim == 0 or u.dim == 0:
        return [0] * (bound + 1)
    steps = resolution(x, minimal, bound + 1).steps
    space_dims = [sum(_e_dim(u, st) for st in steps[i].slot_types) for i in range(bound + 2)]
    # t_i : T_i -> T_{i-1}
    ts = [
        _slot_block_matrix(u, steps[i].slot_types, steps[i - 1].slot_types,
                           lambda j, j2: steps[i].d_elems[j][j2])
        for i in range(1, bound + 2)
    ]
    return [_homology_dim(space_dims, ts, i) for i in range(bound + 1)]


# ---------------------------------------------------------------------------
# chain lifts and induced maps on Ext


def lift_chain_map(f, bound):
    """Lift f: m -> m' to chain maps F_i: P_i(m) -> P_i(m'), i = 0..bound."""
    m, mp = f.source, f.target
    res_s = resolution(m, length=bound)
    res_t = resolution(mp, length=bound)
    field = m.field
    lifts = []
    prev = None
    for i in range(bound + 1):
        step_s = res_s.steps[i]
        step_t = res_t.steps[i]
        # target of the defining equation
        if i == 0:
            need = f.matrix * step_s.d_matrix          # P_0(m) -> m'
            through = step_t.d_matrix                  # P_0(m') -> m'
        else:
            need = prev * step_s.d_matrix              # P_i(m) -> P_{i-1}(m')
            through = step_t.d_matrix                  # P_i(m') -> P_{i-1}(m')
        cols = []
        for j, st in enumerate(step_s.slot_types):
            t = need.apply(step_s.gen_vector(j))
            # solve within the e-part of P_i(m')
            if st.e_index is None:
                E, restricted = None, through
            else:
                E = step_t.proj.action_of_vector(list(step_s.proj.algebra.idempotents[st.e_index]))
                restricted = through * E
            sol = Eliminator(restricted).solve(t)
            if sol is None:
                raise ValidationError("chain lift failed (inexact complex?)")
            p = sol if E is None else E.apply(sol)
            cols.extend(_slot_image_columns(step_t.proj, p, st))
        F = Matrix.from_columns(field, cols, step_t.proj.dim)
        lifts.append(F)
        prev = F
    return lifts, res_s, res_t


def _cochain_map(res_s, res_t, F, n_mod, i):
    """G_i: C_i(target complex) -> C_i(source complex), h -> h o F_i."""
    step_s = res_s.steps[i]
    step_t = res_t.steps[i]
    grid = _elem_grid(F, step_s, step_t)
    return _slot_block_matrix(n_mod, step_t.slot_types, step_s.slot_types,
                              lambda j2, j: grid[j][j2])


def _cohomology_descent(Cs, Ct, G, i):
    """Matrix of the map on cohomology at degree i, plus (tgt_dim, src_dim)."""
    field = Cs.n.field
    Kt, bt = Ct.cohomology(i)
    Ks, bs = Cs.cohomology(i)
    ks_solver = Eliminator(Ks)
    cols = []
    for c in bt.complement:
        in_k = ks_solver.solve(G.apply(list(Kt.column(c))))
        if in_k is None:
            raise ValidationError("induced cochain map does not preserve cocycles")
        cols.append(bs.project(in_k))
    src_dim = Ks.ncols - bs.dim
    return Matrix.from_columns(field, cols, src_dim), Kt.ncols - bt.dim, src_dim


def ext_induced_map(f, n, degree, lifts=None, res_s=None, res_t=None):
    """Matrix of Ext^degree(f, n): Ext^degree(f.target, n) -> Ext^degree(f.source, n),
    in the cohomology coordinates of the two Hom complexes.

    Returns (matrix, src_dim, tgt_dim) where the matrix has src_dim rows
    (dim Ext of f.source) and tgt_dim columns."""
    if lifts is None:
        lifts, res_s, res_t = lift_chain_map(f, degree + 1)
    Cs = HomComplex(res_s, n, degree + 1)
    Ct = HomComplex(res_t, n, degree + 1)
    G = _cochain_map(res_s, res_t, lifts[degree], n, degree)
    return _cohomology_descent(Cs, Ct, G, degree)


def ext_comparison_table(f, n, bound):
    """Per-degree data of the induced maps Ext^i(f.target, n) -> Ext^i(f.source, n)
    for 1 <= i <= bound: dicts with degree, dims and invertibility."""
    lifts, res_s, res_t = lift_chain_map(f, bound + 1)
    Cs = HomComplex(res_s, n, bound + 1)
    Ct = HomComplex(res_t, n, bound + 1)
    out = []
    for i in range(1, bound + 1):
        G = _cochain_map(res_s, res_t, lifts[i], n, i)
        M, tdim, sdim = _cohomology_descent(Cs, Ct, G, i)
        out.append(
            {
                "degree": i,
                "dim_target_side": tdim,
                "dim_source_side": sdim,
                "invertible": tdim == sdim and M.rank() == tdim,
            }
        )
    return out


# ---------------------------------------------------------------------------
# bounded semi-Gorenstein-projectivity


def is_semi_gp(m, bound, seed=0):
    """Bounded test of Ext^i(m, regular) = 0 for all i >= 1.

    fails  -> witness: first degree <= bound with nonzero Ext.
    holds  -> certificate: zero syzygy (finite projective dimension) or a
              syzygy periodicity pair proving vanishing in all degrees.
    unknown-> clean up to the bound but no certificate found.

    The periodicity search first tests only the pairs (i, bound).  In a
    minimal resolution an isomorphism Omega^i ~ Omega^j shifts to
    Omega^(i+bound-j) ~ Omega^bound, so when every one of these pairs is
    refuted no pair is isomorphic and the verdict is unknown at once.
    Otherwise all pairs are searched in lexicographic order, reusing the
    verdicts already computed, and the first isomorphic pair is the
    certificate.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    reg = regular_modules(m.algebra)[0 if m.side == "left" else 1]
    if m.dim == 0:
        return Verdict.holds({"zero_module": True})
    res = resolution(m, length=1)
    # incremental scan for an Ext witness
    C = HomComplex(res, reg, 1)
    for i in range(1, bound + 1):
        C.ensure(i + 1)
        d = C.ext_dim(i)
        if d:
            return Verdict.fails({"degree": i, "ext_dim": d})
    if not res.minimal:
        return Verdict.unknown(bound)
    syzygies = [res.syzygy(i) for i in range(1, bound + 1)]
    for i, s in enumerate(syzygies, start=1):
        if s.dim == 0:
            return Verdict.holds({"zero_syzygy_at": i, "finite_projective_dimension": True})
    verdicts = {}

    def pair(i, j):
        v = verdicts.get((i, j))
        if v is None:
            v = verdicts[i, j] = is_isomorphic(syzygies[i - 1], syzygies[j - 1], seed=seed)
        return v

    # Omega^i ~ Omega^j gives Omega^(i+1) ~ Omega^(j+1) in a minimal
    # resolution, so an isomorphic pair (i, j) shifts to (i + bound - j, bound)
    last = syzygies[-1].dim
    if all(syzygies[i - 1].dim != last or pair(i, bound).status == Verdict.FAILS
           for i in range(1, bound)):
        return Verdict.unknown(bound)
    for i in range(1, bound + 1):
        for j in range(i + 1, bound + 1):
            if syzygies[i - 1].dim != syzygies[j - 1].dim:
                continue
            v = pair(i, j)
            if v.status == Verdict.HOLDS:
                return Verdict.holds(
                    {"syzygy_period": (i, j), "isomorphism": v.certificate}
                )
    return Verdict.unknown(bound)
