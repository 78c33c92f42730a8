import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from monomod.algebra import AlgebraPresentation, regular_modules, validate_algebra
from monomod.errors import DimensionMismatch, ValidationError
from monomod.gallery import (
    generic_M,
    generic_M_prime,
    lambda_element,
    lambda_q,
    lsgp_algebra,
    lsgp_example,
    module_M1qc,
)
from monomod.linalg import GF, QQ, Matrix, SpanAccumulator
from monomod.modules import (
    Module,
    ModuleMap,
    Verdict,
    _composites_in_trace_radical,
    cokernel,
    direct_sum,
    hom_space,
    hom_space_direct,
    is_isomorphic,
    k_dual,
    module_on_invariant_columns,
    radical_image,
    regular_bimodule,
    simples_and_projectives,
    submodule_generated,
    tensor_over,
    validate_module,
    zero_module,
)
from monomod.sampling import random_map, random_module
from monomod.triangular import t2_algebra
from test_linalg import _assert_canonical


def test_validate_M1qc_matches_generic(lambda2):
    M = module_M1qc(lambda2, Fraction(1))
    assert M.dim == 3
    Mg = generic_M(lambda2, 1, -2, 1)
    assert Mg.dim == 3
    v = is_isomorphic(M, Mg, seed=1)
    assert v.status == Verdict.HOLDS
    assert v.certificate.matrix.rank() == 3


def test_zero_module_valid(kx2):
    z = zero_module(kx2)
    assert z.dim == 0
    validate_module(list(z.actions), "left", kx2)


def test_mismatched_action_sizes(kx2):
    with pytest.raises(ValidationError):
        validate_module([Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)], "left", kx2)


def test_action_law_violation_witness(kx2):
    # x acting as 1 on k[x]/(x^2): x.1 = x holds, and x.x = 0 fails, at a
    # pair whose product in the algebra is zero
    bad = [Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)]
    assert list(kx2.generators()) == [1]
    assert kx2.product_vectors([0, 1], [0, 1]) == [0, 0]
    with pytest.raises(ValidationError) as ei:
        validate_module(bad, "left", kx2)
    assert str(ei.value) == "action law fails at pair (x, x)"
    assert ei.value.witness == (1, 1)


def test_action_of_vector_matches_scale_and_add(lambda2, kx2):
    from monomod.gallery import lambda_q

    def scale_and_add(m, vec):
        out = Matrix.zero(m.field, m.dim, m.dim)
        for c, act in zip(vec, m.actions):
            out = out + act.scale(c)
        return out

    rng = random.Random(5)
    modules = [module_M1qc(lambda2, Fraction(1)), regular_modules(lambda2)[0],
               regular_modules(lambda_q(GF(5), 2))[0], zero_module(kx2)]
    for m in modules:
        field, n = m.field, m.algebra.dim
        zero = [field.zero] * n
        assert m.action_of_vector(zero) == Matrix.zero(field, m.dim, m.dim)
        for _ in range(6):
            vec = [field.of(rng.choice([0, 0, 1, -1, 2, 3])) for _ in range(n)]
            assert m.action_of_vector(vec) == scale_and_add(m, vec)


def test_hom_space_M_to_regular(lambda2):
    M = module_M1qc(lambda2, Fraction(0))
    reg = regular_modules(lambda2)[0]
    H = hom_space(M, reg)
    assert len(H) == 3
    images = Matrix.from_columns(QQ, [list(h.matrix.column(0)) for h in H], 6)
    expected = Matrix.from_columns(
        QQ,
        [lambda_element(lambda2, {"x": 1, "y": -1}),
         lambda_element(lambda2, {"yx": 1}),
         lambda_element(lambda2, {"zx": 1})],
        6,
    )
    assert images.rank() == 3
    assert images.hstack(expected).rank() == 3


def test_hom_regular_regular(lambda2):
    reg = regular_modules(lambda2)[0]
    assert len(hom_space(reg, reg)) == lambda2.dim


def test_hom_between_simples_and_projectives(loop_arrow):
    # the intertwining system: rad P(2) contains one copy of S(1) (the
    # arrow), so Hom(S(1), P(2)) is one-dimensional; Hom(S(2), P(1)) and
    # Hom(P(2), S(1)) vanish
    S1, S2, P2 = loop_arrow["modules"][:3]
    assert len(hom_space(S1, P2)) == 1
    assert hom_space(S2, S1) == []
    assert hom_space(P2, S1) == []


def _rref_map_basis(m, n, mats):
    """Test-only oracle: the RREF basis, as row-major vecs, of the span of
    map matrices m -> n."""
    dm, dn = m.dim, n.dim
    if not mats:
        return []
    R = Matrix(m.field, [[x for row in F.rows for x in row] for F in mats], dm * dn).rref()
    return [Matrix(m.field, [R.rows[i][r * dm:(r + 1) * dm] for r in range(dn)], dm)
            for i in range(R.rank())]


def test_hom_routes_agree(kx2, loop_arrow, rng):
    from monomod.gallery import standard_family
    from monomod.homology import hom_space_via_presentation

    pairs = []
    for A in (kx2, loop_arrow["algebra"]):
        for _ in range(6):
            pairs.append((random_module(A, rng, max_dim=5, allow_zero=False),
                          random_module(A, rng, max_dim=5, allow_zero=False)))
    # a dual of the X(c) family: Hom(X(0), T2(Lambda(2))) at 9 x 18
    fam = standard_family(QQ, Fraction(2), Fraction(0))
    pairs.append((fam["X_c"].flatten(), regular_modules(fam["parent"].flat)[0]))
    assert (pairs[-1][0].dim, pairs[-1][1].dim) == (9, 18)
    for m, n in pairs:
        direct = hom_space_direct(m, n)
        # the direct route already returns its RREF basis
        assert direct == _rref_map_basis(m, n, direct)
        assert direct == _rref_map_basis(m, n, hom_space_via_presentation(m, n))
    assert direct  # the X(0) dual is nonzero


def _dense_hom_reference(m, n):
    """Test-only oracle: the RREF basis of Hom(m, n) from kernel_matrix of
    the whole dense system rho_n(g) F - F rho_m(g) = 0, all dm*dn unknowns
    F[s][c] (column s*dm + c) and every (r, c) of every generator g."""
    field, dm, dn = m.field, m.dim, n.dim
    rows = []
    for g in m.algebra.generators():
        N, M = n.actions[g].rows, m.actions[g].rows
        for r in range(dn):
            for c in range(dm):
                row = [field.zero] * (dm * dn)
                for s in range(dn):
                    row[s * dm + c] = field.add(row[s * dm + c], N[r][s])
                for s in range(dm):
                    row[r * dm + s] = field.sub(row[r * dm + s], M[s][c])
                rows.append(row)
    K = Matrix(field, rows, dm * dn).kernel_matrix()
    mats = [Matrix(field, [K.column(j)[r * dm:(r + 1) * dm] for r in range(dn)], dm)
            for j in range(K.ncols)]
    return _rref_map_basis(m, n, mats)


def _base_changed(m, rng):
    """m in a seeded random basis: actions P^-1 rho P, so that even the
    idempotents act by dense matrices.  P = L U with unit triangular L and U
    has determinant 1, so integral actions stay integral."""
    field, d = m.field, m.dim

    def unit_triangular(lower):
        return Matrix.from_rows(field, [
            [1 if i == j else rng.choice((0, 0, 1)) if (i > j) == lower else 0
             for j in range(d)] for i in range(d)])

    P = unit_triangular(True) * unit_triangular(False)
    Pinv = P.inverse()
    return validate_module([Pinv * (a * P) for a in m.actions], m.side, m.algebra)


def _check_hom_pair(m, n):
    from monomod.homology import hom_space_via_presentation

    direct = hom_space_direct(m, n)
    assert direct == _dense_hom_reference(m, n)
    assert direct == _rref_map_basis(m, n, hom_space_via_presentation(m, n))
    _assert_canonical(m.field, [x for F in direct for row in F.rows for x in row])
    return direct


def test_hom_direct_matches_dense_system_on_syzygies(monkeypatch):
    # Omega^1..Omega^3 of X(c) and of its dual over T2(Lambda(2)): 9 x 9
    # systems in 81 unknowns with Hom of dimension 5 or 6, then two of them
    # in a random basis.  The dense reference stacks 8 generators x 81 rows,
    # over the default dimension cap.
    monkeypatch.setattr("monomod.config._dimension_cap", 1024)
    from monomod.gallery import standard_family
    from monomod.homology import resolution
    from monomod.triangular import t2_dual_bundle

    fam = standard_family(QQ, Fraction(2), Fraction(3, 2))
    for top in (fam["X_c"].flatten(), t2_dual_bundle(fam["X_c"]).dual_triple.flatten()):
        res = resolution(top, length=3)
        syz = [res.syzygy(i) for i in (1, 2, 3)]
        assert [s.dim for s in syz] == [9, 9, 9]
        for a in syz:
            for b in syz:
                assert len(_check_hom_pair(a, b)) == (6 if a is b else 5)
    # Omega^1 and Omega^2 of the dual in a random basis (one pair: the dense
    # rref of a base-changed system runs in Fractions)
    rng = random.Random(7)
    mixed = [_base_changed(s, rng) for s in syz[:2]]
    e = list(top.algebra.idempotents[0])
    assert sum(1 for row in syz[0].action_of_vector(e).rows for x in row if x) == 3
    assert sum(1 for row in mixed[0].action_of_vector(e).rows for x in row if x) > 40
    assert len(_check_hom_pair(mixed[0], mixed[1])) == 5


def test_hom_direct_all_variables_forced(loop_arrow, monkeypatch):
    # e1 acts by 1 on S(1) and by 0 on S(2): the one constraint row of
    # Hom(S(2), S(1)) has one entry, so nothing is left to eliminate
    import monomod.modules as modules

    real, seen = modules.sparse_kernel, []

    def spy(field, nvars, rows):
        seen.append(nvars)
        return real(field, nvars, rows)

    monkeypatch.setattr(modules, "sparse_kernel", spy)
    S1, S2 = loop_arrow["modules"][:2]
    assert _check_hom_pair(S2, S1) == []
    assert seen == [0]


@pytest.mark.parametrize("p", [2, 5])
def test_hom_direct_matches_dense_system_over_fp(p):
    # over F_p the diagonal terms n[r][r] F[r][c] - F[r][c] m[c][c] cancel
    # whenever the two entries agree mod p
    field = GF(p)
    rng = random.Random(p)
    ex = lsgp_example(field)
    lam = lambda_q(field, 1 if p == 2 else 2)
    mods = ex["modules"][2:] + [module_M1qc(lam, field.of(3)), regular_modules(lam)[0]]
    pairs = [(a, b) for a in mods for b in mods if a.algebra is b.algebra]
    pairs += [(_base_changed(a, rng), _base_changed(b, rng)) for a, b in pairs[:6]]
    cancels = 0
    for a, b in pairs:
        _check_hom_pair(a, b)
        for g in a.algebra.generators():
            N, M = b.actions[g].rows, a.actions[g].rows
            cancels += sum(1 for r in range(b.dim) for c in range(a.dim)
                           if N[r][r] and N[r][r] == M[c][c])
    assert cancels


def test_hom_dual_symmetry(kx2, loop_arrow, rng):
    for A in (kx2, loop_arrow["algebra"]):
        for _ in range(5):
            m = random_module(A, rng, max_dim=4, allow_zero=False)
            n = random_module(A, rng, max_dim=4, allow_zero=False)
            assert len(hom_space(m, n)) == len(hom_space(k_dual(n), k_dual(m)))


def _subquotient(f):
    """Kernel, image and cokernel of f with their canonical maps, from
    module_on_invariant_columns and cokernel."""
    kernel, kincl = module_on_invariant_columns(f.source, f.matrix.kernel_matrix())
    image, iincl = module_on_invariant_columns(f.target, f.matrix.column_space_matrix())
    coker, proj = cokernel(f)
    return SimpleNamespace(kernel=kernel, kernel_inclusion=kincl, image=image,
                           image_inclusion=iincl, cokernel=coker, projection=proj)


def test_subquotient_f1(lambda2):
    from monomod.gallery import f1_map

    f1 = f1_map(module_M1qc(lambda2, Fraction(0)))
    sq = _subquotient(f1)
    assert sq.kernel.dim == 1
    assert sq.image.dim == 2
    # kernel spanned by the class of z
    assert list(sq.kernel_inclusion.matrix.column(0)) == [QQ.of(0), QQ.of(0), QQ.of(1)]
    # oracle: z(x - y) = zx - zx = 0 in the algebra
    z = lambda_element(lambda2, {"z": 1})
    w = lambda_element(lambda2, {"x": 1, "y": -1})
    assert not any(lambda2.product_vectors(z, w))


def test_subquotient_identity_zero(kx2):
    reg = regular_modules(kx2)[0]
    sq = _subquotient(ModuleMap.identity(reg))
    assert sq.kernel.dim == 0 and sq.cokernel.dim == 0
    S = simples_and_projectives(kx2)["simples"][0]
    sqz = _subquotient(ModuleMap.zero(reg, S))
    assert sqz.kernel.dim == reg.dim and sqz.cokernel.dim == S.dim


def test_subquotient_rank_nullity_random(kx2, rng):
    for _ in range(10):
        m = random_module(kx2, rng, max_dim=5, allow_zero=False)
        n = random_module(kx2, rng, max_dim=5, allow_zero=False)
        f = random_map(rng, m, n)
        sq = _subquotient(f)
        assert sq.kernel.dim + sq.image.dim == m.dim
        assert sq.cokernel.dim == n.dim - sq.image.dim
        assert sq.kernel_inclusion.intertwines_fully()
        assert sq.projection.intertwines_fully()


def test_random_module_without_zero_draws_no_zero_module(kx2, loop_arrow, lambda2):
    # the relations lie in rad P, so P / rad P survives in every quotient;
    # the top of P is at most 2-dimensional here, well under max_dim
    for A in (kx2, loop_arrow["algebra"], lambda2):
        rng = random.Random(99)
        dims = [random_module(A, rng, max_dim=5, allow_zero=False).dim for _ in range(100)]
        assert min(dims) >= 1 and max(dims) <= 5, A.label


def test_random_module_without_a_radical_draws_anywhere_in_P():
    # over F_3 the trace form cannot find the radical of loop-arrow (dim 4),
    # and T2(k[x]/(x^2)) over F_2 (dim 6) declares none
    kx2_f2 = validate_algebra(AlgebraPresentation(
        GF(2), 2, ["1", "x"], [1, 0], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0]]))
    for A in (lsgp_algebra(GF(3)), t2_algebra(kx2_f2).flat):
        assert not A.has_radical()
        rng = random.Random(1)
        samples = [random_module(A, rng, max_dim=4, allow_zero=False) for _ in range(40)]
        assert all(1 <= m.dim <= 4 for m in samples), A.label
        # a sample that keeps all of a projective is the last resort, not the rule
        assert len({m.dim for m in samples}) > 1, A.label
        for m in samples[:5]:
            validate_module(m.actions, m.side, A)
    rng = random.Random(2)
    with pytest.raises(ValueError, match="dimension at most 0"):
        random_module(lsgp_algebra(GF(3)), rng, max_dim=0, allow_zero=False)
    assert random_module(lsgp_algebra(GF(3)), rng, max_dim=0).dim == 0


def test_tensor_regular_identity(kx2, rng):
    bim = regular_bimodule(kx2)
    for _ in range(6):
        y = random_module(kx2, rng, max_dim=4, allow_zero=False)
        t = tensor_over(bim, y)
        assert t.dim == y.dim
        v = is_isomorphic(t.module, y, seed=5)
        assert v.status == Verdict.HOLDS


def test_tensor_simple_simple(kx2):
    S = simples_and_projectives(kx2)["simples"][0]
    t = tensor_over(k_dual(S), S)
    assert t.dim == 1


def test_tensor_full_relation_oracle(lambda2):
    # brute-force oracle: span the relations u.b (x) v - u (x) b.v over the
    # FULL basis of the algebra, not just generators
    Mp = generic_M_prime(lambda2, 1, Fraction(-1, 2), 0)
    M = module_M1qc(lambda2, Fraction(1))
    t = tensor_over(Mp, M)
    N = Mp.dim * M.dim
    from monomod.linalg import SpanAccumulator

    acc = SpanAccumulator(QQ, N)
    for g in range(lambda2.dim):
        Ru = Mp.actions[g]
        Ly = M.actions[g]
        for i in range(Mp.dim):
            for j in range(M.dim):
                vec = [QQ.of(0)] * N
                for s, a in enumerate(Ru.column(i)):
                    if a:
                        vec[s * M.dim + j] += a
                for s, b in enumerate(Ly.column(j)):
                    if b:
                        vec[i * M.dim + s] -= b
                acc.add(vec)
    assert t.dim == N - acc.dim
    assert t.dim == 2  # frozen from this oracle


def test_tensor_side_mismatch(kx2):
    S = simples_and_projectives(kx2)["simples"][0]
    with pytest.raises(DimensionMismatch):
        tensor_over(S, S)  # first argument must be a right module


def test_is_isomorphic_basics(lambda2, loop_arrow):
    M = module_M1qc(lambda2, Fraction(0))
    assert is_isomorphic(M, M, seed=0).status == Verdict.HOLDS
    S1, S2 = loop_arrow["modules"][0], loop_arrow["modules"][1]
    v = is_isomorphic(S1, S2, seed=0)
    assert v.status == Verdict.FAILS  # refuted by a rank argument
    # distinct-dimension refutation
    v2 = is_isomorphic(S1, loop_arrow["modules"][2], seed=0)
    assert v2.status == Verdict.FAILS
    assert v2.witness["reason"] == "dimension mismatch"


def test_is_isomorphic_rank_filters(kx2):
    # k (+) k versus the regular module: the x-action ranks differ, so the
    # refutation is immediate and definite
    S = simples_and_projectives(kx2)["simples"][0]
    SS, _inc, _pr = direct_sum([S, S])
    reg = regular_modules(kx2)[0]
    v = is_isomorphic(SS, reg, seed=0)
    assert v.status == Verdict.FAILS
    assert "rank" in v.witness["reason"]


def test_is_isomorphic_exhaustive_over_f3():
    # over F_3 the modules M(1,-q,0) and M(1,-q,1) agree in every cheap
    # invariant (dim, action ranks, radical image, Hom dimensions) yet are
    # not isomorphic; with 3^2 candidate combinations the exhaustive search
    # refutes them definitively
    F = GF(3)
    A = lambda_q(F, 2)
    M0 = module_M1qc(A, F.of(0))
    M1 = module_M1qc(A, F.of(1))
    v = is_isomorphic(M0, M1, seed=0)
    assert v.status == Verdict.FAILS
    assert "exhaustive" in v.witness["reason"]


def test_k_dual(kx2):
    L = regular_modules(kx2)[0]
    D = k_dual(L)
    assert D.side == "right"
    assert D.dim == L.dim
    assert D.action(1) == L.action(1).transpose()
    DD = k_dual(D)
    assert DD.side == "left" and DD.actions == L.actions


def test_simples_and_projectives(loop_arrow, lambda2, trivial_k):
    sp = simples_and_projectives(loop_arrow["algebra"])
    assert [p.dim for p, _e in sp["projectives"]] == [1, 3]
    assert [s.dim for s in sp["simples"]] == [1, 1]
    sp6 = simples_and_projectives(lambda2)
    assert len(sp6["projectives"]) == 1
    assert sp6["projectives"][0][0].dim == 6
    assert sp6["simples"][0].dim == 1
    spk = simples_and_projectives(trivial_k)
    assert spk["projectives"][0][0].dim == 1 == spk["simples"][0].dim


def test_verdict_contract():
    with pytest.raises(ValueError):
        Verdict("fails")
    with pytest.raises(ValueError):
        Verdict("unknown")
    v = Verdict.unknown(6)
    assert not v.definite
    with pytest.raises(TypeError):
        bool(v)


def test_maps_intertwine_fully_random(kx2, rng):
    for _ in range(6):
        m = random_module(kx2, rng, max_dim=4, allow_zero=False)
        n = random_module(kx2, rng, max_dim=4, allow_zero=False)
        for h in hom_space(m, n):
            assert h.intertwines_fully()


def test_submodule_generated_invariant(lambda2, rng):
    reg = regular_modules(lambda2)[0]
    for _ in range(5):
        v = [QQ.of(rng.randint(-2, 2)) for _ in range(6)]
        sub, incl = submodule_generated(reg, [v])
        assert incl.intertwines_fully()
        # closed under the action
        for i in range(6):
            img = reg.actions[i] * incl.matrix
            from monomod.linalg import Eliminator

            assert Eliminator(incl.matrix).solve_matrix(img) is not None


def test_is_isomorphic_unknown_over_rationals(lambda2):
    # M(1,-q,0) (+) S and M(1,-q,1) (+) S share dimension, all action ranks,
    # the radical image and both Hom dimensions, but are not isomorphic.  The
    # identity of S is among the composites and escapes the trace radical,
    # so the refutation does not apply and the seeded search over the
    # rationals ends in an honest unknown with its trial budget
    S = simples_and_projectives(lambda2)["simples"][0]
    X, _inc, _pr = direct_sum([module_M1qc(lambda2, Fraction(0)), S])
    Y, _inc, _pr = direct_sum([module_M1qc(lambda2, Fraction(1)), S])
    assert X.dim == Y.dim
    for g in lambda2.generators():
        assert X.actions[g].rank() == Y.actions[g].rank()
    assert radical_image(X).dim == radical_image(Y).dim
    H, Hback = hom_space(X, Y), hom_space(Y, X)
    assert len(H) == len(Hback) > 0
    assert not _composites_in_trace_radical(QQ, H, Hback, hom_space_direct(X, X))
    v = is_isomorphic(X, Y, seed=0, trials=12)
    assert v.status == Verdict.UNKNOWN
    assert v.bound == 12


def test_is_isomorphic_trace_radical_refutation(lambda2):
    # every composite M0 -> M1 -> M0 lies in the trace radical of End(M0)
    M0 = module_M1qc(lambda2, Fraction(0))
    M1 = module_M1qc(lambda2, Fraction(1))
    v = is_isomorphic(M0, M1, seed=0, trials=12)
    assert v.status == Verdict.FAILS
    assert v.witness == {"reason": "composites lie in the trace radical of End",
                         "dims": (2, 2, 3)}


def _base_change(m, rng):
    """m with its actions conjugated by a seeded invertible matrix."""
    field = m.field
    while True:
        P = Matrix(field, [[field.random_element(rng) for _ in range(m.dim)]
                           for _ in range(m.dim)], m.dim)
        if P.rank() == m.dim:
            break
    Pinv = P.inverse()
    return validate_module([P * a * Pinv for a in m.actions], m.side, m.algebra)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_trace_radical_refutation_never_fires_on_isomorphic_pairs(field, loop_arrow):
    A = lambda_q(field, 2)
    S = simples_and_projectives(A)["simples"][0]
    M0 = module_M1qc(A, field.of(0))
    mods = [M0, S, regular_modules(A)[0], direct_sum([M0, S])[0],
            module_M1qc(A, field.of(3))]
    if field == QQ:
        mods += loop_arrow["modules"] + [direct_sum([M0, M0, S])[0]]
    rng = random.Random(7)
    for m in mods:
        assert field.characteristic == 0 or field.characteristic > m.dim
        for _ in range(3):
            n = _base_change(m, rng)
            H, Hback = hom_space(m, n), hom_space(n, m)
            assert not _composites_in_trace_radical(field, H, Hback, hom_space_direct(m, m))
            assert is_isomorphic(m, n, seed=0).status != Verdict.FAILS


def test_trace_radical_refutation_needs_p_above_the_dimension():
    # over F_2 the trace form of End(k[x]/(x^2)) vanishes on all of End, the
    # identity included, so without the guard p > d it would refute the
    # regular module against itself
    F2 = GF(2)
    A = validate_algebra(AlgebraPresentation(
        F2, 2, ["1", "x"], [1, 0], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0]],
    ))
    reg = regular_modules(A)[0]
    H = hom_space(reg, reg)
    assert _composites_in_trace_radical(F2, H, H, hom_space_direct(reg, reg))
    assert is_isomorphic(reg, reg, seed=0).status == Verdict.HOLDS
    # M0^3 against M1^3 (d = 9, Hom dimension 18, too many combinations to
    # exhaust): refuted over F_11, skipped over F_3 and F_7, where the
    # search ends unknown
    for p, status in ((3, Verdict.UNKNOWN), (7, Verdict.UNKNOWN), (11, Verdict.FAILS)):
        F = GF(p)
        L = lambda_q(F, 2)
        X = direct_sum([module_M1qc(L, F.of(0))] * 3)[0]
        Y = direct_sum([module_M1qc(L, F.of(1))] * 3)[0]
        v = is_isomorphic(X, Y, seed=0, trials=4)
        assert v.status == status
        if status == Verdict.FAILS:
            assert v.witness["reason"] == "composites lie in the trace radical of End"


def test_resolution_cache_thread_safety(kx2):
    import threading

    from monomod.homology import resolution

    S = simples_and_projectives(kx2)["simples"][0]
    S2 = validate_module(list(S.actions), "left", kx2)  # fresh, uncached
    results = []

    def work():
        res = resolution(S2, True, 6)
        results.append(tuple(res.proj(i).dim for i in range(7)))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == (2, 2, 2, 2, 2, 2, 2)


def test_resolution_locks_are_per_module(kx2):
    # while one resolution is being extended, another module still resolves
    import threading

    from monomod.homology import resolution

    S = simples_and_projectives(kx2)["simples"][0]
    busy = resolution(validate_module(list(S.actions), "left", kx2), True)
    other = validate_module(list(S.actions), "left", kx2)
    with busy._lock:
        t = threading.Thread(target=resolution, args=(other, True, 3))
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(resolution(other, True).steps) == 4
    # threads racing on one fresh module all get its one cached resolution
    fresh = validate_module(list(S.actions), "left", kx2)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(resolution(fresh, True, 4)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8 and all(r is got[0] for r in got)
    assert [st.proj.dim for st in got[0].steps] == [2] * 5


def test_subquotient_outputs_revalidate(lambda2, rng):
    # the induced actions on kernel, image and cokernel satisfy the module
    # laws exhaustively
    from monomod.gallery import f1_map

    f1 = f1_map(module_M1qc(lambda2, Fraction(0)))
    sq = _subquotient(f1)
    for mod in (sq.kernel, sq.image, sq.cokernel):
        validate_module(list(mod.actions), mod.side, mod.algebra)
    for _ in range(3):
        m = random_module(lambda2, rng, max_dim=5, allow_zero=False)
        n = random_module(lambda2, rng, max_dim=5, allow_zero=False)
        f = random_map(rng, m, n)
        sq = _subquotient(f)
        for mod in (sq.kernel, sq.image, sq.cokernel):
            validate_module(list(mod.actions), mod.side, mod.algebra)


def _radical_image_by_dense_columns(m):
    """Every column of every radical element's action, zero or not, added to
    one accumulator: the reference for radical_image."""
    acc = SpanAccumulator(m.field, m.dim)
    for jv in m.algebra.radical_basis():
        for col in m.action_of_vector(jv).columns():
            acc.add(col)
    return acc


def test_radical_image_adds_only_nonzero_columns_to_the_same_span(lambda2, trivial_k):
    from monomod.gallery import standard_family
    from monomod.homology import resolution

    X = standard_family(QQ, Fraction(2), Fraction(3, 2))["X_c"].flatten()
    syz = resolution(X, length=1).syzygy(1)
    assert syz.dim == 9
    kxk = validate_algebra(AlgebraPresentation(
        QQ, 2, ["e1", "e2"], [1, 1], [(0, 0, 0, 1), (1, 1, 1, 1)],
        idempotents=[[1, 0], [0, 1]],
    ))
    assert kxk.radical_basis() == []
    mods = [syz, X, zero_module(lambda2), zero_module(kxk), regular_modules(kxk)[0],
            regular_modules(trivial_k)[0]]
    L2 = lambda_q(GF(2), 1)
    mods += [module_M1qc(L2, 1), regular_modules(L2)[0],
             simples_and_projectives(L2)["simples"][0]]
    mods += list(lsgp_example(GF(5))["modules"])
    L5 = lambda_q(GF(5), 2)
    mods += [module_M1qc(L5, 3), regular_modules(L5)[1], k_dual(regular_modules(L5)[1])]
    grown = 0
    for m in mods:
        acc, ref = radical_image(m), _radical_image_by_dense_columns(m)
        assert acc.rows == ref.rows
        assert acc.complement == ref.complement
        grown += acc.dim
    assert grown > 0
    assert {m.field for m in mods} == {QQ, GF(2), GF(5)}
