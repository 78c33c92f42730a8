"""Projective covers, resolutions, syzygies, Ext/Tor, bounded semi-
Gorenstein-projectivity.

Resolutions are built from idempotent-column projectives Ae (or eA on the
right), one slot per generator: P_i is the direct sum of its slot blocks,
and each differential is stored as the algebra elements it sends each slot
generator to, one per slot of P_{i-1}.  That makes Hom(P, N) = eN and
u (x) P = ue coordinate spaces, read through the rank factorization
rho(e) = B.R of idempotent_slice, so Ext and Tor complexes solve nothing:
each block of a differential is the restricted_action R_t.rho(a).B_s of a
stored algebra element a between two slices (_slot_block_matrix).  A cover is
minimal exactly when each of its slots has a one-dimensional top, decided
once per algebra (has_minimal_covers); an algebra without them gets free
covers.

P_i is still a Module (_SlotSum), so resolve() and the kernel inclusions
can hand it out, but its dimension is all it knows at once: its
block-diagonal action matrices are assembled from the slot modules only when
something reads them.  Nothing that builds a resolution, a Hom complex, a
Tor complex or a chain lift does; they all act on a vector of P_i one slot
block at a time.

The kernel of each differential, the next syzygy, is read off the slots too
(_kernel_module), the first time something reads it: the next step's cover,
a syzygy, or an outside reader.  So a resolution never builds the kernel of
its last step, which nothing reads; its dimension alone is known at once.
Its basis K is read off the cover P_i -> Omega^i, not off the differential
d_i = incl o cover: incl is injective, so the two have one row space and the
same reduced echelon form, hence the same kernel basis, and the cover is the
smaller matrix.  K is the identity on the free (non-pivot) rows, so an
algebra element acts on the kernel by the free rows of a.K.  a.K is formed
one slot block at a time from the small slot modules' actions, and the pivot
rows of a.K are checked exactly against K times that action, which holds
exactly when K is invariant.

A periodic module reaches syzygies with the action matrices of a module its
resolution has already covered.  Such a step reuses the earlier cover, and
with it the earlier kernel: from there on the syzygies are the same module
objects, so whatever is kept on them is computed once.
"""

import threading

from .algebra import regular_modules
from .errors import ValidationError
from .linalg import Eliminator, Matrix, SpanAccumulator, row_combination
from .memo import memo
from .modules import (
    Module,
    ModuleMap,
    Verdict,
    generated_span,
    idempotent_slice,
    is_isomorphic,
    radical_image,
    radical_image_dim,
    restricted_action,
    submodule_generated,
)


# ---------------------------------------------------------------------------
# projective slots


class SlotType:
    """One indecomposable-projective shape Ae (left) or eA (right): the block
    that every slot of this shape contributes to a projective P_i."""

    __slots__ = ("e_index", "module", "basis_in_A", "gen_coord")

    def __init__(self, e_index, module, basis_in_A, gen_coord):
        self.e_index = e_index        # idempotent index, None = unit (free slot)
        self.module = module
        self.basis_in_A = basis_in_A  # columns: the slot basis as elements of A
        self.gen_coord = gen_coord    # coordinates of e in the slot basis

    @property
    def dim(self):
        return self.module.dim

    @property
    def top_dim(self):
        """dim slot - dim J.slot; a cover is minimal iff this is 1 for every slot."""
        return self.dim - radical_image_dim(self.module)


@memo
def slot_type(algebra, side, e_index):
    reg = regular_modules(algebra)[0 if side == "left" else 1]
    field = algebra.field
    if e_index is None:
        return SlotType(
            None,
            reg,
            Matrix.identity(field, algebra.dim),
            list(algebra.unit),
        )
    e = list(algebra.idempotents[e_index])
    sub, incl = submodule_generated(reg, [e], label=f"P[e{e_index}]")
    gen = Eliminator(incl.matrix).solve(e)
    return SlotType(e_index, sub, incl.matrix, gen)


@memo
def has_minimal_covers(algebra):
    """Declared idempotents, a computable radical, and a one-dimensional top
    for every slot Ae: a cover lifting a basis of top(m) then has its kernel
    in rad(P).  dim top(Ae) = dim top(eA), so the left slots decide both."""
    return (
        algebra.idempotents is not None
        and algebra.has_radical()
        and all(slot_type(algebra, "left", e).top_dim == 1
                for e in range(len(algebra.idempotents)))
    )


@memo
def _e_part_of_module(n, e_index):
    """idempotent_slice (B, R) of eN inside N, e the slot's idempotent or
    the unit for a free slot (e_index None), whose slice is (I, I)."""
    algebra = n.algebra
    return idempotent_slice(n, algebra.unit if e_index is None else algebra.idempotents[e_index])


def _e_dim(n, st):
    return _e_part_of_module(n, st.e_index)[0].ncols


def _slot_block_matrix(n, src_slots, tgt_slots, lam):
    """Matrix of (+)_s e_s N -> (+)_t e_t N whose block from source slot s to
    target slot t is v -> lam(s, t) . v, the restricted_action of lam(s, t)
    between the two slices.  Columns run over (source slot, basis vector of
    its e-part), rows over the e-coordinates of each target slot."""
    src = [_e_part_of_module(n, st.e_index) for st in src_slots]
    tgt = [_e_part_of_module(n, tt.e_index) for tt in tgt_slots]
    blocks = {}
    for s, source in enumerate(src):
        for t, target in enumerate(tgt):
            elem = lam(s, t)
            if any(elem):
                blocks[t, s] = restricted_action(n, elem, source, target,
                                                 "vector not in the idempotent part")
    return Matrix.from_blocks(n.field, [R.nrows for _B, R in tgt],
                              [B.ncols for B, _R in src], blocks)


def _slot_image_columns(field, images, st):
    """Columns a_l . p over the basis a_l of slot st, given images[i] = b_i . p
    for the algebra basis b_i: the images of the slot basis under the map
    from the slot sending its generator to p, as {row: value} maps.  They
    are the rows of B^T R, where B holds the a_l as columns and R has the
    rows images."""
    applied = Matrix(field, images, len(images[0]))
    return (st.basis_in_A.transpose() * applied).sparse_rows


def _homology_dim(dims, maps, i):
    """dims[i] - rank of the map between degrees i and i+1 - rank of the map
    between i-1 and i; maps[k] joins degrees k and k+1 in either direction,
    and a map missing past the end counts as zero."""
    out = dims[i] - (maps[i].rank() if i < len(maps) else 0)
    return out - maps[i - 1].rank() if i else out


# ---------------------------------------------------------------------------
# resolutions


class _SlotSum(Module):
    """P_i = (+) slots as a Module whose dimension is known at once and whose
    block-diagonal action matrices are assembled from the slot modules only
    on first read, then kept (memo).

    A concurrent first read is safe: the assembly reads only the slot
    modules, which never change, and memo keeps the first tuple stored, so
    every reader gets the same tuple."""

    def __init__(self, algebra, side, slot_types):
        self.algebra = algebra
        self.side = side
        self.dim = sum(st.dim for st in slot_types)
        self.label = "P"
        self._cache = {}
        self.slot_types = slot_types

    @property
    @memo
    def actions(self):
        return self._assemble_actions()

    def _assemble_actions(self):
        field = self.field
        return tuple(
            Matrix.block_diag(field, [st.module.actions[i] for st in self.slot_types])
            for i in range(self.algebra.dim)
        )


class _Step:
    """One term P_i = (+) slots (a _SlotSum), with the cover of the module it
    covers, its differential and the kernel of both.  kernel_dim is dim P_i
    minus the dimension of the module covered, known at once; the kernel
    module and its inclusion are read off the cover on first read
    (_kernel_module), once, under the step's lock, so concurrent readers get
    the same objects.  The kernel's actions are the free rows of a.K, formed
    slot block by slot block, after a check of the pivot rows.  A step that
    repeats an earlier cover (repeat) shares its slots, P_i, cover and kernel
    and has a differential of its own."""

    __slots__ = ("slot_types", "offsets", "proj", "cover", "d_matrix", "d_elems",
                 "kernel_dim", "_kernel", "_lock")

    def __init__(self, slot_types, offsets, proj, cover):
        self.slot_types = slot_types
        self.offsets = offsets        # first coordinate of each slot block in P_i
        self.proj = proj
        self.cover = cover            # P_i -> the module covered, surjective
        self.d_matrix = cover         # P_i -> P_{i-1} (or -> target for i = 0), set by the caller
        self.d_elems = None           # [slot of P_i][slot of P_{i-1}] A-vectors; None at step 0
        self.kernel_dim = proj.dim - cover.nrows
        self._kernel = None           # (kernel, inclusion) once read
        self._lock = threading.Lock()

    def repeat(self):
        """A new step with this step's slots, P_i, cover and kernel, for a
        later module with the same actions: its kernel is this one's."""
        step = _Step(self.slot_types, self.offsets, self.proj, self.cover)
        step._kernel = self._kernel_pair()
        return step

    @property
    def kernel(self):
        return self._kernel_pair()[0]

    @property
    def kernel_incl(self):
        return self._kernel_pair()[1]

    def _kernel_pair(self):
        pair = self._kernel
        if pair is None:
            with self._lock:
                pair = self._kernel
                if pair is None:
                    pair = self._kernel = _kernel_module(self)
        return pair

    def gen_vector(self, j):
        """The generator of slot j as a vector of P_i."""
        v = [self.proj.field.zero] * self.proj.dim
        off = self.offsets[j]
        for l, c in enumerate(self.slot_types[j].gen_coord):
            v[off + l] = c
        return v


class Resolution:
    """Internal resolution state, with no step until extended; extended
    lazily and cached on the module.  Its own lock serializes extensions,
    so resolving one module never waits on another.  Extending to step n
    builds the kernels of steps 0..n-1, which the covers need; the kernel
    of step n is built only if something reads it.  Step 0 covers the target
    that extend_to is handed, so the resolution keeps no reference to it:
    the module's cache holds the resolution, and a reference back would be
    a cycle that only the cyclic garbage collector frees.

    A module with the actions of one that an earlier step covered (the
    target counts) is not covered again: the new step repeats the earlier
    one, so a periodic resolution builds one cover and one kernel per
    distinct syzygy.  Only the action tuples are kept for that, never the
    target itself."""

    def __init__(self, minimal):
        self.minimal = minimal
        self.steps = []
        self._covered = []  # the actions of the module each step covers
        self._lock = threading.Lock()

    def proj(self, i):
        return self.steps[i].proj

    def extend_to(self, n_steps, target=None):
        """Ensure steps 0..n_steps exist; step 0 covers target."""
        with self._lock:
            if not self.steps:
                self._add_step(target)
            while len(self.steps) <= n_steps:
                self._add_step(self.steps[-1].kernel)
        return self

    def _add_step(self, m):
        """Cover m, the target at step 0 and the last kernel after it, or
        repeat the step that covered a module with m's actions."""
        for covered, earlier in zip(self._covered, self.steps):
            if covered == m.actions:
                step = earlier.repeat()
                break
        else:
            step = _build_cover_step(m, self.minimal)
        self._covered.append(m.actions)
        if self.steps:
            prev = self.steps[-1]
            # d_i = (kernel inclusion) o (cover of the kernel)
            step.d_matrix = prev.kernel_incl.matrix * step.d_matrix
            step.d_elems = _elem_grid(step.d_matrix, step, prev)
            # exactness bookkeeping: im(d_i) = ker(d_{i-1}) by construction
            if not (prev.d_matrix * step.d_matrix).is_zero():
                raise ValidationError("consecutive differentials do not compose to zero")
        self.steps.append(step)

    def first_zero_kernel(self, limit):
        """The first i < limit with ker d_i = 0, so that P_i is the last
        term, extending step by step; None when there is none."""
        for i in range(limit):
            self.extend_to(i)
            if self.steps[i].kernel_dim == 0:
                return i
        return None

    def syzygy(self, i):
        """Omega^i of the target (i >= 1)."""
        if i < 1:
            raise ValueError("syzygy index must be >= 1")
        self.extend_to(i - 1)
        return self.steps[i - 1].kernel


def _build_cover_step(m, minimal):
    algebra = m.algebra
    field = m.field
    if has_minimal_covers(algebra):
        gens = _minimal_generators(m)
        if not minimal:
            gens = [(None, g) for (_e, g) in gens]
    else:
        gens = [(None, g) for g in _free_generators(m)]
    slot_types = [slot_type(algebra, m.side, e_idx) for (e_idx, _) in gens]
    proj = _SlotSum(algebra, m.side, slot_types)
    offsets = []
    off = 0
    for st in slot_types:
        offsets.append(off)
        off += st.dim
    cols = []
    for (_e, g), st in zip(gens, slot_types):
        cols.extend(_slot_image_columns(field, [act.apply(g) for act in m.actions], st))
    dmat = Matrix.from_columns(field, cols, m.dim)
    if dmat.rank() != m.dim:
        raise ValidationError("cover is not surjective")  # cannot happen
    return _Step(slot_types, offsets, proj, dmat)


def _free_generators(m):
    """Vectors generating m, for free covers without has_minimal_covers.

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
            for row in span.sparse_rows:
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
    """(idempotent index, generator vector) pairs lifting a basis of top(m),
    under has_minimal_covers."""
    algebra = m.algebra
    field = m.field
    rad_image = radical_image(m)
    if m.dim == 0:
        return []
    top_dim = m.dim - rad_image.dim
    gens = []
    for e_idx, e in enumerate(algebra.idempotents):
        # column j of e's action is a generator exactly when its image in
        # top(m) grows the span of the images of the columns before it
        E = m.action_of_vector(list(e))
        top = SpanAccumulator(field, top_dim)
        gens.extend((e_idx, E.column(j)) for j, c in enumerate(E.sparse_columns())
                    if top.add(rad_image.project(c)))
    return gens


def _kernel_module(step):
    """(ker d_i as a module, its inclusion into P_i), read from the slots.

    K = cover.kernel_matrix() is ker d_i too, d_i being the cover followed
    by an injective inclusion, and is the identity on the free (non-pivot)
    rows of the cover, so the action X of a basis vector a of the algebra on
    the kernel is the free rows of a.K, and K is a-invariant exactly when
    the pivot rows of a.K equal those of K.X.  a acts on P_i slot by slot,
    so each slot block of a.K is the slot module's action on that block of
    K: no P_i-sized product and no solve."""
    d = step.cover
    field = d.field
    canon = field.canon
    K = d.kernel_matrix()
    k = K.ncols
    pivots = d.pivot_columns()
    free = _free_columns(d)
    k_rows = K.sparse_rows
    acts = []
    for i in range(step.proj.algebra.dim):
        aK = []  # the rows of a_i.K
        for st, off in zip(step.slot_types, step.offsets):
            for arow in st.module.actions[i].sparse_rows:
                aK.append(row_combination(canon, arow, k_rows, off) if arow else arow)
        X = tuple(aK[f] for f in free)
        for pc in pivots:
            if row_combination(canon, k_rows[pc], X) != aK[pc]:
                raise ValidationError("subspace is not action-invariant", witness=i)
        acts.append(Matrix._trusted(field, X, k))
    sub = Module(step.proj.algebra, step.proj.side, k, acts)
    return sub, ModuleMap(sub, step.proj, K, check=False)


def _free_columns(d):
    """The non-pivot columns of d, increasing: the rows on which
    d.kernel_matrix() is the identity."""
    pivots = set(d.pivot_columns())
    return [j for j in range(d.ncols) if j not in pivots]


def _kernel_coords(K, free, V, message):
    """X with K.X = V for K = d.kernel_matrix(), the identity on the rows
    free = _free_columns(d): V's rows there, checked exactly by K.X == V."""
    X = V.submatrix(free, range(V.ncols))
    if K * X != V:
        raise ValidationError(message)
    return X


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
    """Cached internal resolution, extended to `length` steps, minimal by
    default exactly when has_minimal_covers holds."""
    covers = has_minimal_covers(m.algebra)
    if minimal is None:
        minimal = covers
    elif minimal and not covers:
        raise ValidationError("minimal-unavailable: the algebra has no minimal projective covers")
    return _resolution(m, bool(minimal)).extend_to(length, m)


@memo
def _resolution(m, minimal):
    return Resolution(minimal)


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


def _image_in_radical(d):
    """Every column of d lies in J.P, P = d.target = (+) slots.  J.P is the
    direct sum of the slots' J.slot, so each slot block of a column is
    checked against the radical image of its own slot module."""
    cols = d.matrix.columns()
    accs = {}
    off = 0
    for st in d.target.slot_types:
        acc = accs.get(st.e_index)
        if acc is None:
            acc = accs[st.e_index] = radical_image(st.module)
        if not all(acc.contains(c[off: off + st.dim]) for c in cols):
            return False
        off += st.dim
    return True


def resolve(m, n, minimal=None):
    """A projective resolution P_0..P_n of m.

    Minimal by default exactly when has_minimal_covers holds, free
    otherwise; minimal=True without minimal covers raises ValidationError.
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
    return ProjResolution(m, terms, diffs, aug, res.minimal)


# ---------------------------------------------------------------------------
# Hom complexes and Ext


class HomComplex:
    """Coordinates of Hom(P_i, n) = (+)_slots eN over a resolution of m.

    delta(i) is the matrix of Hom(P_i, n) -> Hom(P_(i+1), n), h -> h o d_(i+1),
    assembled from the stored algebra elements of the differential when it
    is first read: a caller that reads only some degrees builds only those.
    """

    def __init__(self, res, n, upto):
        self.res = res
        self.n = n
        self.upto = -1
        self.space_dims = []
        self._cache = {}  # the coboundaries, kept by memo
        self.ensure(upto)

    def ensure(self, upto):
        """Extend the complex to cover Hom(P_0..P_upto, n)."""
        if upto <= self.upto:
            return self
        self.res.extend_to(upto)
        steps = self.res.steps
        for i in range(self.upto + 1, upto + 1):
            self.space_dims.append(sum(_e_dim(self.n, st) for st in steps[i].slot_types))
        self.upto = upto
        return self

    @memo
    def delta(self, i):
        """The coboundary out of degree i, valid for 0 <= i <= upto - 1."""
        steps = self.res.steps
        return _slot_block_matrix(self.n, steps[i].slot_types, steps[i + 1].slot_types,
                                  lambda j2, j: steps[i + 1].d_elems[j][j2])

    def cocycle_dim(self, i):
        """dim of the cocycles at degree i, valid for 0 <= i <= upto - 1.
        P_(i+1) -> P_i -> Omega^i -> 0 is exact, so this is dim Hom(Omega^i m, n)
        (dim Hom(m, n) at i = 0)."""
        return self.space_dims[i] - self.delta(i).rank()

    def ext_dim(self, i):
        """dim Ext^i(m, n), valid for 0 <= i <= upto - 1."""
        return self.cocycle_dim(i) - (self.delta(i - 1).rank() if i else 0)

    def cohomology(self, i):
        """(cocycle basis K in C_i coords, the rows free where K is the
        identity, span of the coboundaries in K coords) at degree i:
        cohomology is the quotient by that span."""
        field = self.n.field
        d = self.delta(i) if i < self.upto else Matrix.zero(field, 0, self.space_dims[i])
        K, free = d.kernel_matrix(), _free_columns(d)
        boundaries = SpanAccumulator(field, K.ncols)
        if i > 0:
            boundaries.add_columns(_kernel_coords(K, free, self.delta(i - 1),
                                                  "image escapes kernel: complex broken"))
        return K, free, boundaries


class ExtTable:
    """dims[i] = dim Ext^i(source, target) for 0 <= i <= bound."""

    __slots__ = ("source", "target", "dims")

    def __init__(self, source, target, dims):
        self.source = source
        self.target = target
        self.dims = list(dims)

    def __repr__(self):
        return f"ExtTable({self.dims})"


def ext_dims(m, n, bound, minimal=None):
    """Ext^0..Ext^bound of (m, n); same side and algebra required."""
    if m.algebra is not n.algebra or m.side != n.side:
        raise ValidationError("ext_dims needs one algebra and side")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if m.dim == 0:
        return ExtTable(m, n, [0] * (bound + 1))
    C = HomComplex(resolution(m, minimal, bound + 1), n, bound + 1)
    return ExtTable(m, n, [C.ext_dim(i) for i in range(bound + 1)])


def hom_space_via_presentation(m, n):
    """Basis matrices of Hom(m, n) from a projective presentation of m: the
    reference that hom_space_direct is checked against."""
    res = resolution(m, length=1)
    C = HomComplex(res, n, 1)
    K = C.delta(0).kernel_matrix()
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
            fcols.extend(_slot_image_columns(field, [act.apply(nvec) for act in n.actions], st))
        fmat = Matrix.from_columns(field, fcols, n.dim)
        mats.append(fmat * pre)
    return mats


# ---------------------------------------------------------------------------
# Tor


def tor_dims(u, x, bound):
    """Tor_0..Tor_bound of (u, x) for u right, x left over one algebra.

    Computed from resolution(x), minimal whenever the algebra allows: u (x) P
    collapses to ue-spaces with differentials acting by right multiplication.
    """
    if u.side != "right" or x.side != "left":
        raise ValidationError("tor_dims needs (right module, left module)")
    if u.algebra is not x.algebra:
        raise ValidationError("tor_dims needs one algebra")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if x.dim == 0 or u.dim == 0:
        return [0] * (bound + 1)
    steps = resolution(x, length=bound + 1).steps
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


def _slot_sum_images(step, p):
    """b_i . p for every algebra basis vector b_i, p a vector of P_i: each
    slot block of p is moved by that slot module's action."""
    blocks = [(st.module.actions, p[off: off + st.dim])
              for st, off in zip(step.slot_types, step.offsets)]
    return [[y for acts, v in blocks for y in acts[i].apply(v)]
            for i in range(step.proj.algebra.dim)]


def lift_chain_map(f, bound):
    """Lift f: m -> m' to chain maps F_i: P_i(m) -> P_i(m'), i = 0..bound.
    Each a_l acts on a lift slot by slot, through the slot modules of
    P_i(m')."""
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
        solver = Eliminator(through)
        cols = []
        for j, st in enumerate(step_s.slot_types):
            # any p with through(p) = t = need(e) lifts the slot A.e:
            # a -> a.p is a module map, and through(e.p) = e.t = t
            p = solver.solve(need.apply(step_s.gen_vector(j)))
            if p is None:
                raise ValidationError("chain lift failed (inexact complex?)")
            cols.extend(_slot_image_columns(field, _slot_sum_images(step_t, p), st))
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
    Kt, _free, bt = Ct.cohomology(i)
    Ks, free, bs = Cs.cohomology(i)
    in_k = _kernel_coords(Ks, free, G * Kt.submatrix(range(Kt.nrows), bt.complement),
                          "induced cochain map does not preserve cocycles")
    cols = [bs.project(c) for c in in_k.sparse_columns()]
    src_dim = Ks.ncols - bs.dim
    return Matrix.from_columns(Cs.n.field, cols, src_dim), Kt.ncols - bt.dim, src_dim


def _ext_induced_maps(f, n, first, last):
    """_cohomology_descent's (matrix, tgt_dim, src_dim) of Ext^i(f, n) for
    first <= i <= last, from one chain lift of f and one pair of Hom
    complexes."""
    lifts, res_s, res_t = lift_chain_map(f, last + 1)
    Cs = HomComplex(res_s, n, last + 1)
    Ct = HomComplex(res_t, n, last + 1)
    return [_cohomology_descent(Cs, Ct, _cochain_map(res_s, res_t, lifts[i], n, i), i)
            for i in range(first, last + 1)]


def ext_induced_map(f, n, degree):
    """Matrix of Ext^degree(f, n): Ext^degree(f.target, n) -> Ext^degree(f.source, n),
    in the cohomology coordinates of the two Hom complexes.

    Returns (matrix, tgt_dim, src_dim) where the matrix has src_dim rows
    (dim Ext of f.source) and tgt_dim columns (dim Ext of f.target)."""
    return _ext_induced_maps(f, n, degree, degree)[0]


def ext_comparison_table(f, n, bound):
    """Per-degree data of the induced maps Ext^i(f.target, n) -> Ext^i(f.source, n)
    for 1 <= i <= bound: dicts with degree, dims and invertibility."""
    return [
        {
            "degree": i,
            "dim_target_side": tdim,
            "dim_source_side": sdim,
            "invertible": tdim == sdim and M.rank() == tdim,
        }
        for i, (M, tdim, sdim) in enumerate(_ext_induced_maps(f, n, 1, bound), start=1)
    ]


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

    Verdicts are kept by the pair of syzygy modules, not by their indices:
    past the period of a periodic resolution the syzygies are the same
    module objects (Resolution), so pairs such as (1, 2) and (1, bound)
    share one is_isomorphic call, which is deterministic.

    Before a pair (i, j) of unequal modules reaches is_isomorphic it is
    screened by Hom dimensions read off the resolution.  The resolution
    holds exact sequences P_(i+1) -> P_i -> Omega^i -> 0, so Hom(Omega^i, N)
    is the space of cocycles at degree i of Hom(P_., N), and its dimension
    is one rank in the Hom complex into N.  Omega^i ~ Omega^j forces
    dim Hom(Omega^i, Omega^j) = dim End(Omega^j), so a pair whose two
    dimensions differ is refuted exactly; both are read from one complex
    into Omega^j, built the first time target j needs it.  A pair that
    passes the screen, and every pair whose action matrices are equal (the
    screen cannot refute those, and a periodic module often repeats its
    syzygy matrices), goes to is_isomorphic as before.  The screen refutes
    only non-isomorphic pairs, so the search reaches the same first
    isomorphic pair and gets the same certificate.
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
    complexes = {}

    def hom_dim(i, j):
        """dim Hom(Omega^i, Omega^j), read off the complex into Omega^j."""
        C = complexes.get(j)
        if C is None:
            C = complexes[j] = HomComplex(res, syzygies[j - 1], bound + 1)
        return C.cocycle_dim(i)

    def pair(i, j):
        si, sj = syzygies[i - 1], syzygies[j - 1]
        v = verdicts.get((si, sj))
        if v is None:
            if si.actions != sj.actions and hom_dim(i, j) != hom_dim(j, j):
                v = Verdict.fails({
                    "reason": "dim Hom(Omega^i, Omega^j) != dim End(Omega^j)",
                    "dims": (hom_dim(i, j), hom_dim(j, j)),
                })
            else:
                v = is_isomorphic(si, sj, seed=seed)
            verdicts[si, sj] = v
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
