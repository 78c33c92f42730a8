"""Tensor algebras A (x)_k kQ/I for finite acyclic quivers Q with monomial
relations, representation <-> module conversion, monic checks, and
monomorphism-category membership.

Path conventions: a path stores its arrows in application order (left entry
acts first), and the algebra product p * q applies q first, so paths act on
left modules the way their composite maps do.  A monomial relation is a
composable arrow sequence of length >= 2 in the same order; a path dies in
kQ/I exactly when it contains a relation as a contiguous subsequence.
"""

from .algebra import AlgebraPresentation, regular_modules, validate_algebra
from .errors import DimensionMismatch, ValidationError
from .homology import _homology_dim, ext_dims, resolution, tor_dims
from .linalg import Matrix, basis_vector, combination
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    Verdict,
    idempotent_slices,
    k_dual,
    quotient_module,
    restricted_action,
    simples_and_projectives,
    tensor_over,
    validate_module,
)


class Quiver:
    """Finite acyclic quiver with monomial relations."""

    def __init__(self, vertices, arrows, relations=()):
        self.vertices = list(vertices)
        self.arrows = [(str(n), s, t) for (n, s, t) in arrows]
        self.relations = [tuple(str(a) for a in r) for r in relations]
        self.arrow_by_name = {}
        for n, s, t in self.arrows:
            if n in self.arrow_by_name:
                raise ValidationError(f"duplicate arrow name {n!r}")
            if s not in self.vertices or t not in self.vertices:
                raise ValidationError(f"arrow {n!r} has an unknown endpoint")
            self.arrow_by_name[n] = (s, t)
        self._check_acyclic()
        for r in self.relations:
            if len(r) < 2:
                raise ValidationError("relations must have length >= 2")
            for a, b in zip(r, r[1:]):
                if a not in self.arrow_by_name or b not in self.arrow_by_name:
                    raise ValidationError(f"relation {r} uses an unknown arrow")
                if self.arrow_by_name[a][1] != self.arrow_by_name[b][0]:
                    raise ValidationError(f"relation {r} is not composable")

    def _check_acyclic(self):
        succ = {v: [] for v in self.vertices}
        for _n, s, t in self.arrows:
            succ[s].append(t)
        state = {}

        def visit(v):
            state[v] = 1
            for w in succ[v]:
                if state.get(w) == 1:
                    raise ValidationError("quiver has an oriented cycle")
                if w not in state:
                    visit(w)
            state[v] = 2

        for v in self.vertices:
            if v not in state:
                visit(v)

    def source(self, path):
        return self.arrow_by_name[path[0]][0]

    def target(self, path):
        return self.arrow_by_name[path[-1]][1]

    def paths(self):
        """All relation-free paths: (source_vertex, arrow tuple) pairs,
        ordered by length, then arrow names, trivial paths by vertex order."""
        rels = set(self.relations)

        def alive_after_extend(arrs):
            # arrs is alive except possibly for a relation ending at the tail
            for k in range(2, len(arrs) + 1):
                if arrs[-k:] in rels:
                    return False
            return True

        out = [(v, ()) for v in self.vertices]
        frontier = [(v, ()) for v in self.vertices]
        while frontier:
            nxt = []
            for src, arrs in frontier:
                end = self.target(arrs) if arrs else src
                for n, s, t in self.arrows:
                    if s == end:
                        cand = arrs + (n,)
                        if alive_after_extend(cand):
                            nxt.append((src, cand))
            nxt.sort(key=lambda p: p[1])
            out.extend(nxt)
            frontier = nxt
        return out


def path_algebra(field, quiver, label=""):
    """kQ/I as a validated Algebra; idempotents = trivial paths, radical =
    the nontrivial paths (declared and re-verified)."""
    paths = quiver.paths()
    index = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    one = field.one
    consts = []
    for (src_p, arrs_p) in paths:
        for (src_q, arrs_q) in paths:
            # product p*q applies q first: needs target(q) == source(p)
            q_end = quiver.target(arrs_q) if arrs_q else src_q
            p_start = src_p
            if q_end != p_start:
                continue
            merged = (src_q, arrs_q + arrs_p)
            k = index.get(merged)
            if k is not None:
                consts.append(
                    (index[(src_p, arrs_p)], index[(src_q, arrs_q)], k, one)
                )
    unit = [field.zero] * n
    idems = []
    for v in quiver.vertices:
        i = index[(v, ())]
        unit[i] = one
        idems.append(basis_vector(field, n, i))
    rad = []
    for p, i in index.items():
        if p[1]:
            rad.append(basis_vector(field, n, i))
    labels = [f"e_{p[0]}" if not p[1] else "*".join(p[1]) for p in paths]
    pres = AlgebraPresentation(
        field, n, labels, unit, consts, idempotents=idems, radical_basis=rad or None
    )
    B = validate_algebra(pres, label=label or "kQ/I")
    B._quiver = quiver
    B._path_index = index
    B._paths = paths
    return B


class TensorAlgebra:
    """Lambda = A (x)_k kQ/I with basis (A basis) x (path basis)."""

    def __init__(self, A, quiver, B, flat):
        self.A = A
        self.quiver = quiver
        self.B = B
        self.flat = flat
        self.paths = B._paths
        self.npaths = len(self.paths)

    def index(self, i, j):
        """Flat index of a_i (x) path_j."""
        return i * self.npaths + j

    def vertex_idempotent(self, v):
        """1_A (x) e_v as a flat vector."""
        return self.embed(self.A.unit, self.B._path_index[(v, ())])

    def embed(self, a_vec, path_j):
        """a_vec (x) path_j as a flat vector."""
        field = self.flat.field
        return _outer(field, a_vec, basis_vector(field, self.npaths, path_j))

    def __repr__(self):
        return f"Tensor({self.A!r} (x) {self.B!r})"


def _outer(field, u, v):
    """u (x) v in the flat basis of A (x) kQ/I: coordinate i * len(v) + j is
    u_i v_j."""
    n = len(v)
    v_support = [(j, b) for j, b in enumerate(v) if b]
    out = [field.zero] * (len(u) * n)
    for i, a in enumerate(u):
        if a:
            for j, b in v_support:
                out[i * n + j] = field.mul(a, b)
    return out


def build_tensor(A, quiver, label=""):
    """A (x)_k kQ/I, validated, with idempotents (A idempotents) x (trivial
    paths) and the product radical declared."""
    field = A.field
    B = path_algebra(field, quiver)
    nA, nP = A.dim, B.dim
    dim = nA * nP

    def ix(i, j):
        return i * nP + j

    consts = []
    for (i1, i2), terms_a in A.table.items():
        for (j1, j2), terms_b in B.table.items():
            for ka, ca in terms_a:
                for kb, cb in terms_b:
                    consts.append((ix(i1, j1), ix(i2, j2), ix(ka, kb), field.mul(ca, cb)))
    unit = _outer(field, A.unit, B.unit)
    idemA = A.idempotents if A.idempotents is not None else [A.unit]
    idems = [_outer(field, ea, eb) for ea in idemA for eb in B.idempotents]
    # J(A (x) B) = J_A (x) B + A (x) J_B (separable semisimple quotients)
    rad = []
    try:
        radA = A.radical_basis()
    except ValidationError:
        radA = None
    if radA is not None:
        e_paths = [basis_vector(field, nP, j) for j in range(nP)]
        rad = [_outer(field, rv, e) for rv in radA for e in e_paths]
        rad += [
            _outer(field, basis_vector(field, nA, i), e_paths[j])
            for i in range(nA)
            for p, j in B._path_index.items()
            if p[1]
        ]
    labels = [
        f"{A.basis_labels[i]}(x){B.basis_labels[j]}"
        for i in range(nA)
        for j in range(nP)
    ]
    pres = AlgebraPresentation(
        field, dim, labels, unit, consts, idempotents=idems,
        radical_basis=rad or None,
    )
    flat = validate_algebra(pres, label=label or f"{A.label}(x)kQ")
    parent = TensorAlgebra(A, quiver, B, flat)
    flat._cache["tensor_parent"] = parent
    return parent


# ---------------------------------------------------------------------------
# representations


class QuiverRep:
    """Representation of (Q, I) over A: a left A-module per vertex, an A-map
    per arrow, relation composites vanishing."""

    def __init__(self, parent, vertex_modules, arrow_maps):
        self.parent = parent
        self.vertex_modules = dict(vertex_modules)
        self.arrow_maps = dict(arrow_maps)
        self._cache = {}
        q = parent.quiver
        for v in q.vertices:
            if v not in self.vertex_modules:
                raise ValidationError(f"missing vertex module at {v!r}")
        for n, s, t in q.arrows:
            f = self.arrow_maps.get(n)
            if f is None:
                raise ValidationError(f"missing arrow map {n!r}")
            if f.source is not self.vertex_modules[s] or f.target is not self.vertex_modules[t]:
                raise ValidationError(f"arrow map {n!r} has wrong endpoints")
        for r in q.relations:
            comp = self.path_map(q.arrow_by_name[r[0]][0], r)
            if not comp.matrix.is_zero():
                raise ValidationError(f"relation {r} does not vanish", witness=r)

    def path_map(self, src, arrs):
        """Composite along a path (application order)."""
        m = self.vertex_modules[src]
        out = ModuleMap.identity(m)
        for a in arrs:
            out = self.arrow_maps[a].compose(out)
        return out

    def flat_dim(self):
        return sum(m.dim for m in self.vertex_modules.values())


def rep_to_module(rep):
    """The flat left module over A (x) kQ/I; coordinates grouped by vertex.
    a_i (x) p, for a path p from s to t, acts by X_t(a_i) o X(p) in the
    (t, s) block."""
    parent = rep.parent
    field = parent.flat.field
    q = parent.quiver
    dims = [rep.vertex_modules[v].dim for v in q.vertices]
    pos = {v: k for k, v in enumerate(q.vertices)}
    path_blocks = []
    for src, arrs in parent.paths:
        tgt = q.target(arrs) if arrs else src
        path_blocks.append((pos[tgt], pos[src], rep.vertex_modules[tgt],
                            rep.path_map(src, arrs).matrix))
    # one action per flat basis vector a_i (x) p_j, in index order i * npaths + j
    acts = [
        Matrix.from_blocks(field, dims, dims, {(t, s): Xt.actions[i] * pm})
        for i in range(parent.A.dim)
        for t, s, Xt, pm in path_blocks
    ]
    return validate_module(acts, "left", parent.flat, label="rep")


def module_to_rep(parent, m):
    """Inverse of rep_to_module: vertex slices by the trivial-path
    idempotents, arrow maps by the embedded arrows."""
    q = parent.quiver
    field = m.field
    nA = parent.A.dim
    index = parent.B._path_index
    slices = dict(zip(q.vertices, idempotent_slices(
        m, [parent.vertex_idempotent(v) for v in q.vertices])))
    mods = {}
    for v, sl in slices.items():
        acts = [
            restricted_action(m, parent.embed(basis_vector(field, nA, i), index[(v, ())]),
                              sl, sl, f"vertex slice {v!r} is not A-invariant")
            for i in range(nA)
        ]
        mods[v] = Module(parent.A, "left", sl[0].ncols, acts,
                         label=f"{m.label}@{v}")
    maps = {}
    for nm, s, t in q.arrows:
        sol = restricted_action(m, parent.embed(parent.A.unit, index[(s, (nm,))]),
                                slices[s], slices[t],
                                f"arrow {nm!r} does not map into its target slice")
        maps[nm] = ModuleMap(mods[s], mods[t], sol, check=False)
    return QuiverRep(parent, mods, maps)


# ---------------------------------------------------------------------------
# outer tensor products


def outer_tensor(parent, u, v):
    """u (x)_k v as a module over A (x) kQ/I: (a (x) b).(x (x) y) = ax (x) by.
    Sides must match; a pair of right modules gives a right module."""
    if u.algebra is not parent.A or v.algebra is not parent.B:
        raise DimensionMismatch("outer_tensor needs (A-module, kQ/I-module)")
    if u.side != v.side:
        raise DimensionMismatch("outer_tensor needs matching sides")
    field = parent.flat.field
    acts = []
    for i in range(parent.A.dim):
        ai = u.actions[i]
        for j in range(parent.npaths):
            acts.append(ai.kronecker(v.actions[j]))
    return Module(
        parent.flat, u.side, u.dim * v.dim, acts,
        label=f"{u.label}(x){v.label}",
    )


def dual_regular_outer(parent):
    """D(A_A) (x) B as a left module over the tensor algebra."""
    DA = k_dual(regular_modules(parent.A)[1])
    Bleft = regular_modules(parent.B)[0]
    return outer_tensor(parent, DA, Bleft)


# ---------------------------------------------------------------------------
# monic checks


def _right_simple_resolutions(B):
    """Finite minimal right resolutions of the right simples, one per vertex
    idempotent; acyclic monomial algebras have finite global dimension so
    these terminate."""
    got = B._cache.get("right_simple_resolutions")
    if got is not None:
        return got
    out = []
    simples = simples_and_projectives(B, side="right")["simples"]
    for S in simples:
        res = resolution(S, True, 0)
        length = None
        for i in range(B.dim + 2):
            res.extend_to(i)
            if res.steps[i].kernel.dim == 0:
                length = i
                break
        if length is None:
            raise ValidationError("right simple has no finite resolution (cycle?)")
        out.append((S, res, length))
    return B._cache.setdefault("right_simple_resolutions", out)


def _slice_complex_homology(parent, rep, res, length):
    """Homology of (vertex slices of rep) against a right-B resolution:
    T_i = (+) X_{v(slot)}, where the vertex of a slot is that of its
    idempotent, and the block of T_i -> T_{i-1} from slot j to slot j2 is
    sum of c * X(p) over the terms c.p of the resolution element
    d_elems[j][j2] of kQ/I."""
    field = parent.flat.field
    vertices = parent.quiver.vertices
    dims = [[rep.vertex_modules[vertices[st.e_index]].dim for st in res.steps[i].slot_types]
            for i in range(length + 1)]
    grids = [res.steps[i].d_elems for i in range(1, length + 1)]
    # only the paths that occur in some d_elems are composed
    used = {k for grid in grids for row in grid for lam in row for k, c in enumerate(lam) if c}
    path_maps = [rep.path_map(src, arrs).matrix if k in used else None
                 for k, (src, arrs) in enumerate(parent.paths)]
    mats = []
    for i, grid in enumerate(grids, 1):
        blocks = {
            (j2, j): combination(field, lam, path_maps, dims[i - 1][j2], dims[i][j])
            for j, row in enumerate(grid) for j2, lam in enumerate(row)
        }
        mats.append(Matrix.from_blocks(field, dims[i - 1], dims[i], blocks))
    totals = [sum(d) for d in dims]
    return [_homology_dim(totals, mats, i) for i in range(length + 1)]


def _gathered_arrows(rep, v):
    """The map (+) X_{s(alpha)} -> X_v gathering the arrows alpha into v,
    sources in arrow-name order; None when no arrow ends at v."""
    incoming = sorted((n, s) for (n, s, t) in rep.parent.quiver.arrows if t == v)
    if not incoming:
        return None
    return Matrix.from_blocks(
        rep.parent.flat.field,
        [rep.vertex_modules[v].dim],
        [rep.vertex_modules[s].dim for _n, s in incoming],
        {(0, k): rep.arrow_maps[n].matrix for k, (n, _s) in enumerate(incoming)},
    )


def gathered_arrow_kernels(rep):
    """Per vertex: kernel dimension of (+) X_{s(alpha)} -> X_v (relation-free
    combinatorial monic check)."""
    out = {}
    for v in rep.parent.quiver.vertices:
        mat = _gathered_arrows(rep, v)
        out[v] = 0 if mat is None else mat.ncols - mat.rank()
    return out


def monic_check(x, mode="combinatorial", bound=6):
    """Monic test of a representation (or flat module) over A (x) kQ/I.

    combinatorial: exact; evaluates the finite vertex-slice complexes coming
    from the right-simple resolutions over kQ/I (for relation-free quivers
    this is the gathered-arrow kernel condition).  Returns holds/fails with
    a (vertex, degree) witness.

    homological: bounded; Tor_i(A (x) D(S), x) for the left simples S up to
    the bound, via a resolution of the flat module.  Returns fails/unknown.

    Reports carry assumes_finite_gldim: the reduction to simples needs
    gl.dim kQ/I < oo, automatic for acyclic monomial quivers but not itself
    certified by the bounded computation.
    """
    if isinstance(x, QuiverRep):
        rep = x
    else:
        parent_of = x.algebra._cache.get("tensor_parent")
        if parent_of is None:
            raise ValidationError("module is not over a tensor algebra built here")
        rep = module_to_rep(parent_of, x)
    parent = rep.parent
    if mode == "combinatorial":
        verdict = None
        for (S, res, length), v in zip(
            _right_simple_resolutions(parent.B), parent.quiver.vertices
        ):
            hom = _slice_complex_homology(parent, rep, res, length)
            for i in range(1, length + 1):
                if hom[i]:
                    return Verdict.fails(
                        {"vertex": v, "degree": i, "tor_dim": hom[i],
                         "assumes_finite_gldim": True}
                    )
        return Verdict.holds({"exact": True, "assumes_finite_gldim": True})
    if mode == "homological":
        flat = rep_to_module(rep)
        Aright = regular_modules(parent.A)[1]
        left_simples = simples_and_projectives(parent.B, side="left")["simples"]
        for S, v in zip(left_simples, parent.quiver.vertices):
            DS = k_dual(S)
            AD = outer_tensor(parent, Aright, DS)
            dims = tor_dims(AD, flat, bound)
            for i in range(1, bound + 1):
                if dims[i]:
                    return Verdict.fails(
                        {"vertex": v, "degree": i, "tor_dim": dims[i],
                         "assumes_finite_gldim": True}
                    )
        return Verdict.unknown(bound)
    raise ValidationError(f"unknown monic mode {mode!r}")


def monic_check_perp_form(x, bound=6):
    """The other homological form of the monic test: bounded vanishing of
    Ext against D(A_A) (x) B.  Exact monic modules are clean at every
    degree; a witness here refutes monicity.  fails/unknown only."""
    if isinstance(x, QuiverRep):
        parent = x.parent
        flat = rep_to_module(x)
    else:
        parent = x.algebra._cache.get("tensor_parent")
        if parent is None:
            raise ValidationError("module is not over a tensor algebra built here")
        flat = x
    target = dual_regular_outer(parent)
    dims = ext_dims(flat, target, bound).dims
    for i in range(1, bound + 1):
        if dims[i]:
            return Verdict.fails(
                {"degree": i, "ext_dim": dims[i], "assumes_finite_gldim": True}
            )
    return Verdict.unknown(bound)


def simple_slices(rep):
    """(A (x) S'_v) (x)_Lambda X for the right simples S'_v, as left
    A-modules, one per vertex."""
    parent = rep.parent
    flat = rep_to_module(rep)
    Aright = regular_modules(parent.A)[1]
    right_simples = simples_and_projectives(parent.B, side="right")["simples"]
    out = {}
    for S, v in zip(right_simples, parent.quiver.vertices):
        u = outer_tensor(parent, Aright, S)
        bim = Bimodule(
            parent.A, parent.flat, u.dim,
            [parent.A.left_matrix(i).kronecker(Matrix.identity(parent.A.field, S.dim))
             for i in range(parent.A.dim)],
            u.actions,
            label=f"A(x)S'({v})",
        )
        out[v] = tensor_over(bim, flat).module
    return out


def vertex_cokernels(rep):
    """X_v / Im(gathered arrows into v), per vertex (relation-free form)."""
    out = {}
    for v in rep.parent.quiver.vertices:
        Xv = rep.vertex_modules[v]
        mat = _gathered_arrows(rep, v)
        if mat is None:
            out[v] = Xv
            continue
        Q, _proj, _sec = quotient_module(Xv, mat.column_space_matrix(), label=f"coker@{v}")
        out[v] = Q
    return out


def mon_membership(rep, predicate, bound=6, check_monic=True):
    """Membership of a monic representation in mon(B, C): evaluates the
    C-predicate on the simple slices (A (x) S') (x) X only (the right
    simples suffice by exactness of the slice functors on monic modules).

    predicate: left A-module -> Verdict.
    """
    if check_monic:
        mv = monic_check(rep, "combinatorial")
        if mv.status != Verdict.HOLDS:
            raise ValidationError("mon_membership needs a monic representation")
    slices = simple_slices(rep)
    details = {}
    failed = None
    all_hold = True
    for v, Z in slices.items():
        verdict = predicate(Z)
        details[v] = verdict
        if verdict.status == Verdict.FAILS and failed is None:
            failed = (v, verdict.witness)
        if verdict.status != Verdict.HOLDS:
            all_hold = False
    if failed is not None:
        return Verdict.fails({"vertex": failed[0], "inner": failed[1],
                              "details": {k: d.describe() for k, d in details.items()}})
    if all_hold:
        return Verdict.holds({"details": {k: d.describe() for k, d in details.items()}})
    return Verdict.unknown(bound)
