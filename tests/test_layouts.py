"""The flat layouts of representations, tensor algebras and triples, checked
entry by entry against the textbook block formulas.

Each oracle below builds every action matrix one entry at a time from the
formula, without the block placement that the library uses, so a change of
coordinate order that round trips consistently still fails here.
"""

import random

from monomod.algebra import AlgebraPresentation, regular_modules, validate_algebra
from monomod.homology import has_minimal_covers, resolution, resolve
from monomod.linalg import GF, QQ, Matrix, basis_vector
from monomod.modules import (
    ModuleMap,
    direct_sum,
    hom_space,
    simples_and_projectives,
    submodule_generated,
    tensor_over,
    validate_bimodule,
)
from monomod.quiver import Quiver, QuiverRep, build_tensor, rep_to_module
from monomod.sampling import random_map, random_vector
from monomod.triangular import (
    RightTriple,
    build_triangular,
    make_triple,
    right_triple_to_module,
    t2_algebra,
    t2_triple,
    triple_to_module,
)


A3 = Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)])
A3_REL = Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])


def _dot(field, row, col):
    s = field.zero
    for x, y in zip(row, col):
        s = field.add(s, field.mul(x, y))
    return s


def _module_pool(A, side, rng):
    """Nonzero modules of several shapes: regular, simple, a sum of both and
    a random submodule of the regular module squared."""
    reg = regular_modules(A)[0 if side == "left" else 1]
    S = simples_and_projectives(A, side)["simples"][0]
    both, _inc, _pr = direct_sum([reg, S])
    square, _inc, _pr = direct_sum([reg, reg])
    sub, _incl = submodule_generated(square, [random_vector(A.field, rng, square.dim)])
    return [m for m in (reg, S, both, sub) if m.dim]


# ---------------------------------------------------------------------------
# representations over A (x) kQ/I


def _path_matrix(rep, src, arrs):
    """X(p) for a path p from src: the arrow matrices multiplied in
    application order (identity for a trivial path)."""
    field = rep.parent.flat.field
    M = Matrix.identity(field, rep.vertex_modules[src].dim)
    for a in arrs:
        M = rep.arrow_maps[a].matrix * M
    return M


def _rep_oracle(rep):
    """The action of a_i (x) p, p a path from s to t, sends coordinate c of
    X_s to sum_k X_t(a_i)[r][k] X(p)[k][c] at coordinate r of X_t; every
    other entry is zero.  Module coordinates run over the vertices in order,
    flat basis vectors over (i, j) at index i * (number of paths) + j."""
    T = rep.parent
    q = T.quiver
    field = T.flat.field
    coords = [(v, r) for v in q.vertices for r in range(rep.vertex_modules[v].dim)]
    acts = {}
    for i in range(T.A.dim):
        for j, (src, arrs) in enumerate(T.paths):
            tgt = q.target(arrs) if arrs else src
            Xt = rep.vertex_modules[tgt].actions[i]
            P = _path_matrix(rep, src, arrs)
            rows = []
            for v, r in coords:
                rows.append([
                    _dot(field, Xt.rows[r], P.column(c)) if (v, w) == (tgt, src) else field.zero
                    for w, c in coords
                ])
            acts[i * len(T.paths) + j] = Matrix(field, rows, len(coords))
    return [acts[k] for k in range(len(acts))]


def test_rep_to_module_matches_oracle_kA3(kx2):
    rng = random.Random(7)
    T = build_tensor(kx2, A3)
    pool = _module_pool(kx2, "left", rng)
    for _ in range(6):
        mods = {v: rng.choice(pool) for v in A3.vertices}
        maps = {n: random_map(rng, mods[s], mods[t]) for n, s, t in A3.arrows}
        rep = QuiverRep(T, mods, maps)
        assert list(rep_to_module(rep).actions) == _rep_oracle(rep)


def test_rep_to_module_matches_oracle_with_relation(kx2):
    T = build_tensor(kx2, A3_REL)
    reg = regular_modules(kx2)[0]
    S = simples_and_projectives(kx2)["simples"][0]
    times_x = ModuleMap(reg, reg, kx2.right_matrix(1))   # v -> v.x
    onto_top = hom_space(reg, S)[0]                      # A -> A/J
    reps = [
        # b o a = x^2 = 0
        QuiverRep(T, {1: reg, 2: reg, 3: reg}, {"a": times_x, "b": times_x}),
        # b o a = (A -> A/J) o x = 0
        QuiverRep(T, {1: S, 2: reg, 3: reg}, {"a": times_x, "b": onto_top}),
    ]
    for rep in reps:
        assert list(rep_to_module(rep).actions) == _rep_oracle(rep)


def test_build_tensor_unit_idempotents_radical_match_oracle(kx2, lambda2):
    for A, quiver in ((kx2, A3), (kx2, A3_REL), (lambda2, Quiver([1, 2], [("g", 2, 1)]))):
        T = build_tensor(A, quiver)
        field = A.field
        nP = len(T.paths)
        trivial = [j for j, (_v, arrs) in enumerate(T.paths) if not arrs]

        def vector(entry):
            return tuple(entry(i, j) for i in range(A.dim) for j in range(nP))

        # 1 (x) 1 = sum over vertices v of 1_A (x) e_v
        assert T.flat.unit == vector(
            lambda i, j: A.unit[i] if j in trivial else field.zero)
        # e (x) e_v, the A idempotents outermost and the vertices innermost
        assert T.flat.idempotents == [
            vector(lambda i, j, e=e, v=v: e[i] if j == v else field.zero)
            for e in A.idempotents for v in trivial
        ]
        # J = J_A (x) kQ/I + A (x) (nontrivial paths)
        oracle = [
            vector(lambda i, j, r=r, p=p: r[i] if j == p else field.zero)
            for r in A.radical_basis() for p in range(nP)
        ] + [
            vector(lambda i, j, a=a, p=p: field.one if (i, j) == (a, p) else field.zero)
            for a in range(A.dim) for p in range(nP) if p not in trivial
        ]
        declared = [list(v) for v in T.flat.radical_basis()]
        rank = Matrix(field, oracle, A.dim * nP).rank()
        assert rank == len(declared)
        assert Matrix(field, oracle + declared, A.dim * nP).rank() == rank


# ---------------------------------------------------------------------------
# triples over [[A, M], [0, B]]


def _triple_oracle(t):
    """(a, m, b).(x, y) = (a x + phi(m (x) y), b y) on X (+) Y, flat basis
    A | M | B: entry by entry, phi(m_k (x) y_j) read off the pure-tensor
    coordinates."""
    parent = t.parent
    field = parent.flat.field
    dX, dY = t.X.dim, t.Y.dim
    n = dX + dY
    nA, nM = parent.nA, parent.nM
    pure = t.tensor.pure_matrix
    acts = []
    for k in range(parent.flat.dim):
        rows = [[field.zero] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                if k < nA and r < dX and c < dX:
                    rows[r][c] = t.X.actions[k].rows[r][c]
                elif nA <= k < nA + nM and r < dX and c >= dX:
                    col = pure.column((k - nA) * dY + (c - dX))
                    rows[r][c] = _dot(field, t.phi.matrix.rows[r], col)
                elif k >= nA + nM and r >= dX and c >= dX:
                    rows[r][c] = t.Y.actions[k - nA - nM].rows[r - dX][c - dX]
        acts.append(Matrix(field, rows, n))
    return acts


def _right_triple_oracle(t):
    """(u, v).(a, m, b) = (u a, psi(u) m + v b) on U (+) V over T2(A)."""
    parent = t.parent
    field = parent.flat.field
    dU, dV = t.U.dim, t.V.dim
    n = dU + dV
    nA, nM = parent.nA, parent.nM
    acts = []
    for k in range(parent.flat.dim):
        rows = [[field.zero] * n for _ in range(n)]
        for r in range(n):
            for c in range(n):
                if k < nA and r < dU and c < dU:
                    rows[r][c] = t.U.actions[k].rows[r][c]
                elif nA <= k < nA + nM and r >= dU and c < dU:
                    rows[r][c] = _dot(field, t.V.actions[k - nA].rows[r - dU],
                                      t.psibar.matrix.column(c))
                elif k >= nA + nM and r >= dU and c >= dU:
                    rows[r][c] = t.V.actions[k - nA - nM].rows[r - dU][c - dU]
        acts.append(Matrix(field, rows, n))
    return acts


def test_triple_to_module_matches_oracle_t2(kx2):
    rng = random.Random(11)
    parent = t2_algebra(kx2)
    pool = _module_pool(kx2, "left", rng)
    for _ in range(6):
        X, Y = rng.choice(pool), rng.choice(pool)
        t = t2_triple(parent, X, Y, random_map(rng, Y, X))
        assert list(triple_to_module(t).actions) == _triple_oracle(t)


def test_triple_to_module_matches_oracle_one_point_extension(loop_arrow, trivial_k):
    rng = random.Random(13)
    A = loop_arrow["algebra"]
    P2 = loop_arrow["modules"][2]
    bim = validate_bimodule(A, trivial_k, list(P2.actions), [Matrix.identity(QQ, P2.dim)])
    parent = build_triangular(A, trivial_k, bim)
    Y = regular_modules(trivial_k)[0]
    MY = tensor_over(bim, Y, validate=False).module   # M (x)_k k
    for X in loop_arrow["modules"] + [MY]:
        t = make_triple(parent, X, Y, random_map(rng, MY, X))
        assert list(triple_to_module(t).actions) == _triple_oracle(t)


def test_right_triple_to_module_matches_oracle(kx2):
    rng = random.Random(17)
    parent = t2_algebra(kx2)
    pool = _module_pool(kx2, "right", rng)
    for _ in range(6):
        U, V = rng.choice(pool), rng.choice(pool)
        t = RightTriple(parent, U, V, random_map(rng, U, V))
        assert list(right_triple_to_module(t).actions) == _right_triple_oracle(t)


def test_builds_without_a_radical_fall_back_to_free_covers():
    # over GF(2) the trace form cannot find the radical of k[x]/(x^2) and
    # none is declared, so neither construction can declare one
    F2 = GF(2)
    pres = AlgebraPresentation(F2, 2, ["1", "x"], [1, 0],
                               [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                               idempotents=[[1, 0]])
    A = validate_algebra(pres, label="k[x]/(x^2) over F2")
    assert not A.has_radical()
    flats = [t2_algebra(A).flat, build_tensor(A, Quiver([1, 2], [("g", 2, 1)])).flat]
    assert [B.dim for B in flats] == [6, 6]
    for B in flats:
        assert B._declared_radical is None
        assert not has_minimal_covers(B)
        # the free cover of B, itself free of rank 1, is one copy of B:
        # the picks in the idempotent parts sum to a generator
        res = resolution(regular_modules(B)[0], length=3)
        assert res.minimal is False
        assert [res.proj(i).dim for i in range(4)] == [6, 0, 0, 0]
        # cyclic submodules: the free covers are exact and stay far below the
        # one-copy-per-basis-vector size
        reg = regular_modules(B)[0]
        for j in range(B.dim):
            M, _ = submodule_generated(reg, [basis_vector(F2, B.dim, j)])
            if M.dim:
                P = resolve(M, 3, minimal=False)
                P.check_certificates()
                assert all(t.dim <= B.dim * M.dim for t in P.terms)
