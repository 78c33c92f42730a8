import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from monomod.algebra import AlgebraPresentation, regular_modules, validate_algebra
from monomod.duality import a_dual, canonical_map, classify, dual_map
from monomod.errors import ValidationError
from monomod.gallery import f1_map, module_M1qc
from monomod.homology import is_semi_gp, resolution
from monomod.linalg import QQ, Matrix
from monomod.modules import (
    Bimodule,
    ModuleMap,
    Verdict,
    hom_space,
    is_isomorphic,
    regular_bimodule,
    simples_and_projectives,
    submodule_generated,
    validate_bimodule,
    validate_module,
    zero_module,
)
from monomod.sampling import random_module, random_t2_triple
from monomod.triangular import (
    RightTriple,
    approximation_triple,
    build_triangular,
    classify_triple_assert,
    is_monic_bimodule,
    make_triple,
    module_to_triple,
    t2_algebra,
    t2_dual_bundle,
    t2_triple,
    triple_to_module,
)


def test_t2_of_field(trivial_k):
    T = t2_algebra(trivial_k)
    assert T.flat.dim == 3
    assert len(T.flat.idempotents) == 2


def test_t2_of_lambda(lambda2):
    assert t2_algebra(lambda2).flat.dim == 18


def test_one_point_extension(loop_arrow, trivial_k):
    A = loop_arrow["algebra"]
    P2 = loop_arrow["modules"][2]
    # bimodule structure on P(2): left A-action = its module structure,
    # right k-action trivial
    k = trivial_k
    bim = validate_bimodule(
        A, k, list(P2.actions), [Matrix.identity(QQ, P2.dim)], label="P2-as-bimodule"
    )
    tri = build_triangular(A, k, bim)
    assert tri.flat.dim == A.dim + P2.dim + 1
    assert len(tri.flat.idempotents) == 3


def test_first_column_projective(kx2):
    T = t2_algebra(kx2)
    reg = regular_modules(kx2)[0]
    t = t2_triple(T, reg, zero_module(kx2), ModuleMap.zero(zero_module(kx2), reg))
    flat = t.flatten()
    assert flat.dim == kx2.dim
    v = is_semi_gp(flat, 4)
    assert v.status == Verdict.HOLDS  # projective column


def test_second_column_projective(kx2):
    # (M (x) Q; Q)_id is projective for projective Q
    T = t2_algebra(kx2)
    Q = regular_modules(kx2)[0]
    from monomod.modules import tensor_over

    tens = tensor_over(T.bimodule, Q)
    validate_module(tens.module.actions, "left", T.A)
    t = make_triple(T, tens.module, Q, Matrix.identity(QQ, tens.dim))
    flat = t.flatten()
    assert flat.dim == tens.dim + Q.dim
    # isomorphic to the projective column Lambda e2
    regT = regular_modules(T.flat)[0]
    e2col, _ = submodule_generated(regT, [T.e2])
    assert is_isomorphic(flat, e2col, seed=1).status == Verdict.HOLDS
    mono, _ = is_monic_bimodule(t)
    assert mono


def test_roundtrip_exact_random(kx2, loop_arrow, rng):
    # the unit of loop-arrow is e1 + e2, not a basis vector, so the section
    # y -> sum_k unit_k (b_k (x) y) has more than one nonzero block there
    for A in (kx2, loop_arrow["algebra"]):
        T = t2_algebra(A)
        for _ in range(100):
            t = random_t2_triple(T, rng, max_dim=4)
            flat = t.flatten()
            back = module_to_triple(T, flat)
            assert triple_to_module(back).actions == flat.actions
            assert back.X.dim == t.X.dim and back.Y.dim == t.Y.dim
            assert back.phi.matrix == t.phi.matrix


def test_t2_triple_phi_is_phibar(loop_arrow, trivial_k):
    # A (x)_A Y is Y itself, so the phi of a T2 triple is phibar: Y -> X,
    # and the kernel witness of a non-monic one is a vector of Y
    T = t2_algebra(loop_arrow["algebra"])
    rng = random.Random(5)
    drawn = [random_t2_triple(T, rng, max_dim=5) for _ in range(6)]
    for t in drawn + [module_to_triple(T, t.flatten()) for t in drawn]:
        assert t.phibar() is t.phi
        assert t.phi.source is t.Y and t.tensor.module is t.Y
        mono, wit = is_monic_bimodule(t)
        if not mono:
            assert len(wit) == t.Y.dim and not any(t.phi.matrix.apply(wit))
    assert is_monic_bimodule(drawn[3]) == (False, [QQ.of(1), QQ.of(0)])
    # over a general bimodule phi starts at M (x)_B Y, and there is no phibar
    P2 = loop_arrow["modules"][2]
    bim = validate_bimodule(loop_arrow["algebra"], trivial_k, list(P2.actions),
                            [Matrix.identity(QQ, P2.dim)])
    kmod = regular_modules(trivial_k)[0]
    t = make_triple(build_triangular(loop_arrow["algebra"], trivial_k, bim), P2, kmod,
                    Matrix.identity(QQ, P2.dim))
    assert t.phi.source is not kmod
    with pytest.raises(ValidationError):
        t.phibar()


def test_monic_xc(lambda2):
    T = t2_algebra(lambda2)
    M = module_M1qc(lambda2, Fraction(0))
    Xc = t2_triple(T, regular_modules(lambda2)[0], M, f1_map(M))
    mono, wit = is_monic_bimodule(Xc)
    assert not mono
    assert wit == [QQ.of(0), QQ.of(0), QQ.of(1)]  # the class of z spans the kernel


def test_cached_work_is_freed_by_reference_counting(lambda2):
    # what a module or triple caches holds no reference back to it, so the
    # last reference going away frees it without the cyclic collector
    T = t2_algebra(lambda2)
    reg = regular_modules(lambda2)[0]
    gc.collect()
    gc.disable()
    try:
        M = module_M1qc(lambda2, Fraction(3))
        resolution(M, length=2)
        assert a_dual(M).dual.dim == 3
        t = t2_triple(T, reg, M, f1_map(M))
        t2_dual_bundle(t)
        refs = [weakref.ref(M), weakref.ref(t)]
        del M, t
        assert [r() for r in refs] == [None, None]
        # nor is anything else left in a cycle, a cached rref included
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_remark_nonprojective_bimodule_not_monic(trivial_k):
    # Lambda = [[k, D(Be1)], [0, B]] with B the path algebra of 2 -> 1:
    # (0; Be1) is torsionless but not monic for this bimodule
    one = QQ.one
    B_pres = AlgebraPresentation(
        QQ, 3, ["e1", "e2", "g"], [1, 1, 0],
        [(0, 0, 0, one), (1, 1, 1, one), (2, 1, 2, one), (0, 2, 2, one)],
        idempotents=[[1, 0, 0], [0, 1, 0]],
        radical_basis=[[0, 0, 1]],
    )
    B = validate_algebra(B_pres, label="kA2")
    k = trivial_k
    # M = D(B e1): B e1 = span{e1}; dual is one-dimensional with right action
    # M.e1 = M, M.e2 = 0, M.g = 0
    z1 = Matrix.zero(QQ, 1, 1)
    i1 = Matrix.identity(QQ, 1)
    M = validate_bimodule(k, B, [i1], [i1, z1, z1], label="D(Be1)")
    tri = build_triangular(k, B, M)
    # Y = B e1 (simple projective at vertex 1), X = 0
    regB = regular_modules(B)[0]
    Be1, _ = submodule_generated(regB, [[1, 0, 0]])
    t = make_triple(
        tri, zero_module(k), Be1,
        Matrix(QQ, [], M.dim * Be1.dim),
    )
    mono, wit = is_monic_bimodule(t)
    assert not mono  # M (x)_B Be1 = k is nonzero but maps to 0
    # but the flat module is torsionless: it embeds into (0; Be2) = proj
    rep = classify(t.flatten(), bound=3, seed=0)
    assert rep.torsionless


def test_bundle_trivial_cases(kx2):
    T = t2_algebra(kx2)
    reg = regular_modules(kx2)[0]
    z = zero_module(kx2)
    # (A; 0): Coker phi = A, dual triple = (A*, A*) with pi* invertible
    t = t2_triple(T, reg, z, ModuleMap.zero(z, reg))
    b = t2_dual_bundle(t)
    assert b.dual_triple.U.dim == reg.dim and b.dual_triple.V.dim == reg.dim
    assert b.pi_star.is_isomorphism_map()
    # (A; A)_id: Coker phi = 0, dual triple = (0, A*)
    t2 = t2_triple(T, reg, reg, ModuleMap.identity(reg))
    b2 = t2_dual_bundle(t2)
    assert b2.dual_triple.U.dim == 0 and b2.dual_triple.V.dim == reg.dim


def test_bundle_formulas_random(kx2, loop_arrow, rng):
    # every constructed bundle asserts the factorization phi* = beta o p,
    # the canonical-map formula, and the two identifications internally;
    # here the row-exactness ranks are checked on top
    for A in (kx2, loop_arrow["algebra"]):
        T = t2_algebra(A)
        for _ in range(10):
            t = random_t2_triple(T, rng, max_dim=4)
            b = t2_dual_bundle(t)
            assert b.pi_star.is_injective()
            assert b.p.is_surjective()
            assert b.pi_star.rank() == b.p.source.dim - b.p.rank()
            assert (b.beta.matrix * b.p.matrix) == dual_map(t.phibar()).matrix


def test_cor56_and_beta_random(kx2, rng):
    T = t2_algebra(kx2)
    for _ in range(12):
        t = random_t2_triple(T, rng, max_dim=5)
        b = t2_dual_bundle(t)
        flat = t.flatten()
        ph = canonical_map(flat)
        phibar = t.phibar()
        monic = phibar.is_injective()
        tlX = canonical_map(t.X).kernel_dim() == 0
        tlY = canonical_map(t.Y).kernel_dim() == 0
        assert (ph.kernel_dim() == 0) == (monic and tlX and tlY)
        bspy = dual_map(b.beta).compose(canonical_map(t.Y))
        assert ph.is_surjective() == (
            canonical_map(t.X).is_surjective() and bspy.is_surjective()
        )
        assert b.beta.is_isomorphism_map() == dual_map(phibar).is_surjective()
        # reflexivity structure
        assert (ph.kernel_dim() == 0 and ph.is_surjective()) == (
            monic
            and canonical_map(t.X).kernel_dim() == 0
            and canonical_map(t.X).is_surjective()
            and bspy.is_isomorphism_map()
        )


def test_classify_triple_random(kx2, rng):
    T = t2_algebra(kx2)
    for _ in range(8):
        t = random_t2_triple(T, rng, max_dim=4)
        classify_triple_assert(t, bound=4, seed=0)


def test_classify_triple_general_bimodule(loop_arrow, trivial_k):
    A = loop_arrow["algebra"]
    P2 = loop_arrow["modules"][2]
    bim = validate_bimodule(
        A, trivial_k, list(P2.actions), [Matrix.identity(QQ, P2.dim)]
    )
    tri = build_triangular(A, trivial_k, bim)
    kmod = regular_modules(trivial_k)[0]
    from monomod.modules import tensor_over

    tens = tensor_over(bim, kmod)
    validate_module(tens.module.actions, "left", A)
    t = make_triple(tri, tens.module, kmod, Matrix.identity(QQ, tens.dim))
    rep = classify_triple_assert(t, bound=3, seed=0)
    assert rep["t2"] is False
    assert "skipped" in rep["t2_formulas"]
    assert rep["hypotheses"]["right_projective"]
    assert rep["monic"]["holds"]


def test_approximation_triple_projective(kx2):
    reg = regular_modules(kx2)[0]
    t = approximation_triple(reg)
    assert t.phibar().is_injective()
    rep = classify(t.flatten(), bound=4, seed=0)
    assert rep.gp.status == Verdict.HOLDS


def test_approximation_triple_socle(kx2):
    # Y = k over k[x]/(x^2): the approximation is the socle embedding and
    # the resulting triple is Gorenstein-projective
    S = simples_and_projectives(kx2)["simples"][0]
    t = approximation_triple(S)
    assert t.phibar().is_injective()
    assert t.X.dim == 2
    rep = classify(t.flatten(), bound=6, seed=0)
    assert rep.gp.status == Verdict.HOLDS


def test_lemma_implication_on_samples(kx2, rng):
    # wherever the first six double-semi-GP conditions hold at the bound,
    # beta is invertible and the dual of Y is clean
    from monomod.triangular import classify_triple

    T = t2_algebra(kx2)
    seen = 0
    for _ in range(12):
        t = random_t2_triple(T, rng, max_dim=4)
        rep = classify_triple(t, bound=4, seed=0)
        status = rep["double_sgp_conditions"]["implication_first_six_to_last_two"]
        assert status != "VIOLATED"
        if status == "holds":
            seen += 1
    assert seen >= 1  # the suite actually exercised the implication


def test_iterated_triangular_t3(kx2):
    # [[T2(A), M2], [0, A]] with M2 the 2x1 column bimodule: the chain
    # A <-(id,0)- A(+)A <-(id;0)- A is monic for the column bimodule (both
    # composites out of the last slot are injective) but its quiver
    # incarnation is not a monic representation (the middle gathered map is
    # not injective)
    from monomod.linalg import Eliminator
    from monomod.modules import tensor_over

    T2 = t2_algebra(kx2)
    field = QQ
    nA = kx2.dim
    # M2 = the (A; A) column as a (T2.flat, A)-bimodule
    lacts = []
    zAA = Matrix.zero(field, nA, nA)
    for i in range(nA):  # A block: acts on the top coordinate
        lacts.append(kx2.left_matrix(i).hstack(zAA).vstack(zAA.hstack(zAA)))
    for i in range(nA):  # bimodule block: lower coordinate feeds the top
        lacts.append(zAA.hstack(kx2.left_matrix(i)).vstack(zAA.hstack(zAA)))
    for i in range(nA):  # B block: acts on the lower coordinate
        lacts.append(zAA.hstack(zAA).vstack(zAA.hstack(kx2.left_matrix(i))))
    racts = [Matrix.block_diag(field, [kx2.right_matrix(i), kx2.right_matrix(i)])
             for i in range(nA)]
    M2 = validate_bimodule(T2.flat, kx2, lacts, racts, label="column")
    tri3 = build_triangular(T2.flat, kx2, M2)
    assert tri3.flat.dim == 12

    # X slot: the T2-module (X1 = A; X2 = A(+)A) along (id, 0)
    reg = regular_modules(kx2)[0]
    from monomod.modules import direct_sum

    X2, _inc, _pr = direct_sum([reg, reg])
    phi1 = ModuleMap(X2, reg, Matrix.identity(field, nA).hstack(zAA))
    Xslot = t2_triple(T2, reg, X2, phi1).flatten()
    Y = reg
    tens = tensor_over(tri3.bimodule, Y)
    # phi on pure tensors: (u, v) (x) y  |->  (u.y | v.y, 0)
    cols = []
    for midx in range(2 * nA):
        for yidx in range(nA):
            u_or_v = midx % nA
            val = kx2.product_vectors(
                [field.one if t == u_or_v else field.zero for t in range(nA)],
                [field.one if t == yidx else field.zero for t in range(nA)],
            )
            out = [field.zero] * Xslot.dim
            off = 0 if midx < nA else nA
            for r, c in enumerate(val):
                out[off + r] = c
            cols.append(out)
    L = Matrix.from_columns(field, cols, Xslot.dim)
    phi_mat = L * tens.section
    assert phi_mat * tens.pure_matrix == L  # factors through the relations
    t3 = make_triple(tri3, Xslot, Y, phi_mat)
    assert t3.flatten().dim == 8  # the chain has dims 2 + 4 + 2
    mono, _ = is_monic_bimodule(t3)
    assert mono  # monic for the column bimodule

    # quiver incarnation over A (x) kA3 is NOT monic
    from monomod.quiver import Quiver, QuiverRep, build_tensor, monic_check

    Tq = build_tensor(kx2, Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)]))
    phi2 = ModuleMap(reg, X2, Matrix.identity(field, nA).vstack(zAA))
    rep = QuiverRep(Tq, {1: reg, 2: X2, 3: reg}, {"g1": phi1, "g2": phi2})
    v = monic_check(rep, "combinatorial")
    assert v.status == Verdict.FAILS
    assert v.witness["vertex"] == 1


def _xc_and_approximation_triples(lambda2, loop_arrow):
    """X(3/2) and the approximation triple of I(1) over the loop-arrow
    algebra (not monic, with a 3-dimensional cokernel)."""
    T = t2_algebra(lambda2)
    c = Fraction(3, 2)
    M = module_M1qc(lambda2, c)
    Xc = t2_triple(T, regular_modules(lambda2)[0], M, f1_map(M))
    return [Xc, approximation_triple(loop_arrow["modules"][3])]


def _replace_everywhere(monkeypatch, original, spy):
    """Patch spy in for original in every monomod module that imported it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("monomod") \
                and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, spy)


def test_classify_triple_decides_each_semi_gp_fact_once(monkeypatch, lambda2, loop_arrow):
    # every module of the classification gets one is_semi_gp call per
    # (bound, seed), and no kernel or image module is built on the way: the
    # only invariant-column modules are the indecomposable projectives that
    # submodule_generated builds, once per algebra
    from monomod import homology, modules

    calls, kept, built = [], [], []

    def semi_gp_spy(m, bound, seed=0):
        kept.append(m)  # keeps each id unique while the test runs
        calls.append((id(m), bound, seed))
        return original_semi_gp(m, bound, seed=seed)

    def invariant_columns_spy(*args, **kwargs):
        built.append(sys._getframe(1).f_code.co_name)
        return original_invariant_columns(*args, **kwargs)

    original_semi_gp = homology.is_semi_gp
    original_invariant_columns = modules.module_on_invariant_columns
    _replace_everywhere(monkeypatch, original_semi_gp, semi_gp_spy)
    _replace_everywhere(monkeypatch, original_invariant_columns, invariant_columns_spy)
    from monomod.triangular import classify_triple

    for t in _xc_and_approximation_triples(lambda2, loop_arrow):
        calls.clear()
        t2_dual_bundle(t)
        classify_triple(t, bound=4, seed=3)
        assert calls and len(calls) == len(set(calls))
    assert set(built) <= {"submodule_generated"}


def test_classify_t2_triple_builds_coker_phi_once_and_no_tensor_product(monkeypatch):
    # over T2(A) the triple holds phibar: Y -> X itself, and Coker phi is
    # built once and shared by the dual bundle and classify_triple: building
    # X(3/2) and classifying it takes no tensor_over, two cokernels (Coker
    # phi and Coker pi*) and the duals of 10 modules
    from monomod import duality, modules
    from monomod.gallery import lambda_q
    from monomod.triangular import classify_triple

    counts = {"tensor_over": 0, "cokernel": 0}
    dualized = []

    def counted(original):
        def spy(*args, **kwargs):
            counts[original.__name__] += 1
            return original(*args, **kwargs)
        return spy

    def dual_data_spy(m):
        if all(m is not seen for seen in dualized):
            dualized.append(m)
        return original_dual_data(m)

    original_dual_data = duality._dual_data
    for original in (modules.tensor_over, modules.cokernel):
        _replace_everywhere(monkeypatch, original, counted(original))
    monkeypatch.setattr(duality, "_dual_data", dual_data_spy)
    A = lambda_q(QQ, 2)
    c = Fraction(3, 2)
    M = module_M1qc(A, c)   # fresh, so no report or dual of it is cached from elsewhere
    Xc = t2_triple(t2_algebra(A), regular_modules(A)[0], M, f1_map(M))
    classify_triple(Xc, bound=4, seed=3)
    assert counts == {"tensor_over": 0, "cokernel": 2}
    assert len(dualized) == 10
    assert t2_dual_bundle(Xc).coker is Xc.coker()[0]


def test_classify_triple_conditions_name_their_modules(lambda2, loop_arrow):
    from monomod.modules import cokernel
    from monomod.triangular import classify_triple

    for t in _xc_and_approximation_triples(lambda2, loop_arrow):
        rep = classify_triple(t, bound=4, seed=3)
        b = t2_dual_bundle(t)
        coker, _pi, _section = cokernel(t.phi)
        assert coker.actions == b.coker.actions
        conds = rep["double_sgp_conditions"]
        fresh = {
            "x_perp": t.X,
            "y_perp": t.Y,
            "x_dual_perp": a_dual(t.X).dual,
            "y_dual_perp": a_dual(t.Y).dual,
            "coker_dual_perp": a_dual(b.coker).dual,
        }
        for name, m in fresh.items():
            assert conds[name] == is_semi_gp(m, 4, seed=3).describe(), name
        assert rep["perp_structure"]["y_over_base"] == is_semi_gp(t.Y, 4, seed=3).describe()


def test_classify_triple_reads_dual_maps_off_the_bundle(monkeypatch, lambda2, loop_arrow):
    # phibar* and beta* come from the cached dual bundle: classify_triple
    # itself dualizes only pi*
    from monomod import triangular

    Xc = _xc_and_approximation_triples(lambda2, loop_arrow)[0]
    b = t2_dual_bundle(Xc)
    calls = []

    def spy(f):
        calls.append(f)
        return dual_map(f)

    monkeypatch.setattr(triangular, "dual_map", spy)
    triangular.classify_triple(Xc, bound=4, seed=3)
    assert calls == [b.pi_star]
    assert b.phibar_star.matrix == dual_map(Xc.phibar()).matrix
    assert b.beta_star.matrix == dual_map(b.beta).matrix


def test_classify_triple_assert_names_every_failed_cross_check(monkeypatch, lambda2, loop_arrow):
    import copy

    from monomod import triangular

    original = triangular.classify_triple
    for t in _xc_and_approximation_triples(lambda2, loop_arrow):
        assert triangular.triple_mismatches(original(t, bound=4, seed=3)) == []

    def broken(t, bound=6, seed=0):
        rep = copy.deepcopy(original(t, bound=bound, seed=seed))
        rep["beta_vs_phi_dual"]["agrees"] = False
        rep["composite"]["double_sgp_phi_epi"]["agreement"] = "mismatch"
        return rep

    monkeypatch.setattr(triangular, "classify_triple", broken)
    Xc = _xc_and_approximation_triples(lambda2, loop_arrow)[0]
    with pytest.raises(ValidationError, match="composite.double_sgp_phi_epi.agreement") as err:
        classify_triple_assert(Xc, bound=4, seed=3)
    assert err.value.witness["mismatches"] == [
        "beta_vs_phi_dual.agrees", "composite.double_sgp_phi_epi.agreement"]


def test_no_assert_statements_in_the_package():
    # checks that can fail raise; python -O would strip an assert
    import ast
    import pathlib

    import monomod

    root = pathlib.Path(monomod.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
