"""The acceptance suite: ten numbered criteria, each asserted at exact
(arithmetic) tolerance and reporting one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

import pytest

from monomod.algebra import AlgebraPresentation, regular_modules, validate_algebra
from monomod.duality import a_dual, canonical_map, classify, dual_map
from monomod.gallery import (
    generic_M_prime,
    lambda_q,
    lsgp_example,
    module_M1qc,
    standard_family,
)
from monomod.homology import ext_dims, is_semi_gp
from monomod.linalg import QQ, Matrix
from monomod.modules import (
    ModuleMap,
    Verdict,
    is_isomorphic,
    k_dual,
    simples_and_projectives,
    tensor_over,
)
from monomod.quiver import (
    Quiver,
    QuiverRep,
    build_tensor,
    mon_membership,
    monic_check,
    module_to_rep,
    outer_tensor,
    rep_to_module,
)
from monomod.sampling import random_map, random_module, random_submodule, random_t2_triple
from monomod.triangular import (
    approximation_triple,
    is_monic_bimodule,
    t2_algebra,
    t2_dual_bundle,
    t2_triple,
)


def _report(num, ok, detail, t0):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} " \
           f"({time.time() - t0:5.1f}s) {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def kx2a():
    pres = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0]],
    )
    return validate_algebra(pres, label="k[x]/(x^2)")


@pytest.fixture(scope="module")
def sample_triples(kx2a):
    """100 seeded random 2x2 triples: 34 over k[x]/(x^2), 33 over the
    loop-arrow algebra, 33 over the six-dimensional local algebra (q = 2),
    component dims <= 8 (sampled <= 5)."""
    algebras = [
        (kx2a, 34, 5),
        (lsgp_example()["algebra"], 33, 5),
        (lambda_q(QQ, 2), 33, 5),
    ]
    out = []
    for A, count, max_dim in algebras:
        T = t2_algebra(A)
        rng = random.Random(2024)
        for _ in range(count):
            out.append(random_t2_triple(T, rng, max_dim=max_dim))
    assert len(out) == 100
    return out


def test_criterion_01_dual_isomorphism_family():
    t0 = time.time()
    times = []
    for c in (0, 1, -1):
        t1 = time.time()
        fam = standard_family(QQ, 2, Fraction(c))
        A = fam["algebra"]
        Mp = generic_M_prime(A, 1, Fraction(-1, 2), 0)
        v = is_isomorphic(a_dual(fam["M"]).dual, Mp, seed=0)
        assert v.status == Verdict.HOLDS
        assert v.certificate.matrix.rank() == 3  # explicit intertwiner
        times.append(time.time() - t1)
    _report(1, True, f"dual iso holds for c in (0,1,-1); per-case {max(times):.2f}s", t0)


def test_criterion_02_x_family():
    t0 = time.time()
    from monomod.gallery import ideal_A_w_A, ideal_w_A, lambda_element
    from monomod.triangular import RightTriple

    for c in (0, 1):
        fam = standard_family(QQ, 2, Fraction(c))
        A, parent, Xc = fam["algebra"], fam["parent"], fam["X_c"]
        mono, wit = is_monic_bimodule(Xc)
        assert not mono and Xc.phi.kernel_dim() == 1
        flat = Xc.flatten()
        assert is_semi_gp(flat, 6, seed=0).status != Verdict.FAILS
        b = t2_dual_bundle(Xc)
        assert is_semi_gp(b.dual_triple.flatten(), 6, seed=0).status != Verdict.FAILS
        ph = canonical_map(flat)
        assert ph.kernel_dim() == 1 and ph.cokernel_dim() == 1
        vdd = is_semi_gp(b.double_dual_triple.flatten(), 6, seed=0)
        assert vdd.status == Verdict.FAILS and vdd.witness["degree"] <= 6
        # explicit dual and double-dual forms
        U, inclU = ideal_w_A(A, lambda_element(A, {"x": 1, "y": Fraction(-1, 2)}))
        regR = regular_modules(A)[1]
        target_dual = RightTriple(parent, U, regR, ModuleMap(U, regR, inclU.matrix))
        assert is_isomorphic(
            b.dual_triple.flatten(), target_dual.flatten(), seed=0
        ).status == Verdict.HOLDS
        AwA, inclAwA = ideal_A_w_A(A, lambda_element(A, {"x": 1, "y": -1}))
        regL = regular_modules(A)[0]
        target_dd = t2_triple(parent, regL, AwA, ModuleMap(AwA, regL, inclAwA.matrix))
        assert is_isomorphic(
            b.double_dual_triple.flatten(), target_dd.flatten(), seed=0
        ).status == Verdict.HOLDS
    _report(2, True, "X(c) family: non-monic, clean Ext to degree 6, "
            "canonical map 1/1, double-dual witness recorded, explicit forms", t0)


def test_criterion_03_approximation_pipeline():
    t0 = time.time()
    for c in (0, 1):
        fam = standard_family(QQ, 2, Fraction(c))
        ap = approximation_triple(fam["M"], parent=fam["parent"])
        v = is_isomorphic(ap.flatten(), fam["X_c"].flatten(), seed=0)
        assert v.status == Verdict.HOLDS
    _report(3, True, "approximation triple isomorphic to X(c) for c in (0,1)", t0)


def test_criterion_04_formula_vs_generic(sample_triples):
    t0 = time.time()
    for t in sample_triples:
        # bundle construction asserts: the dual identification h and the
        # double-dual identification are invertible intertwiners, the
        # factorization phi* = beta o p holds, and tilde_h o (phi_X; b*phi_Y)
        # equals the generic canonical map -- all as exact matrix identities
        b = t2_dual_bundle(t)
        assert b.pi_star.is_injective()
        assert b.p.is_surjective()
        assert b.pi_star.rank() + b.p.rank() == b.p.source.dim  # row exactness
        assert (b.beta.matrix * b.p.matrix) == dual_map(t.phibar()).matrix
    _report(4, True, f"{len(sample_triples)} bundles match the generic "
            "dual/double dual/canonical map exactly", t0)


def test_criterion_05_torsionless_epi_structure(sample_triples):
    t0 = time.time()
    bad = 0
    for t in sample_triples:
        b = t2_dual_bundle(t)
        flat = t.flatten()
        ph = canonical_map(flat)
        monic = t.phibar().is_injective()
        phX = canonical_map(t.X)
        phY = canonical_map(t.Y)
        bspy = dual_map(b.beta).compose(phY)
        if (ph.kernel_dim() == 0) != (monic and phX.kernel_dim() == 0
                                      and phY.kernel_dim() == 0):
            bad += 1
        if ph.is_surjective() != (phX.is_surjective() and bspy.is_surjective()):
            bad += 1
        if b.beta.is_isomorphism_map() != dual_map(t.phibar()).is_surjective():
            bad += 1
    _report(5, bad == 0, f"torsionless/epi/beta structure: {bad} counterexamples "
            f"in {len(sample_triples)} samples", t0)


def test_criterion_06_six_conditions_imply_last_two(sample_triples):
    t0 = time.time()
    applicable = 0
    violations = 0
    bound = 6
    for t in sample_triples:
        b = t2_dual_bundle(t)
        phis = dual_map(t.phibar())
        if not phis.is_surjective():
            continue
        pi_dd = dual_map(b.pi_star)
        if not pi_dd.is_surjective():
            continue
        perp_parts = [
            is_semi_gp(t.X, bound, seed=0),
            is_semi_gp(t.Y, bound, seed=0),
            is_semi_gp(a_dual(b.coker).dual, bound, seed=0),
            is_semi_gp(a_dual(t.X).dual, bound, seed=0),
        ]
        if any(v.status == Verdict.FAILS for v in perp_parts):
            continue
        applicable += 1
        y_dual_clean = is_semi_gp(a_dual(t.Y).dual, bound, seed=0)
        if y_dual_clean.status == Verdict.FAILS or not b.beta.is_isomorphism_map():
            violations += 1
    _report(6, violations == 0 and applicable > 0,
            f"first-six conditions held on {applicable} samples; "
            f"{violations} violations of the implied two", t0)


QUIVERS = [
    Quiver([1, 2], [("g", 2, 1)]),
    Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)]),
    Quiver([1, 2, 3, 4],
           [("a", 4, 2), ("b", 4, 3), ("c", 2, 1), ("d", 3, 1)]),
]


def test_criterion_07_submodules_monic_and_relation_counterexample(kx2a):
    t0 = time.time()
    count = 0
    rng = random.Random(7)
    tensors = [build_tensor(kx2a, q) for q in QUIVERS]
    while count < 60:
        T = tensors[count % len(tensors)]
        regT = regular_modules(T.flat)[0]
        sub, _ = random_submodule(regT, rng)
        if sub.dim == 0:
            continue
        rep = module_to_rep(T, sub)
        assert monic_check(rep, "combinatorial").status == Verdict.HOLDS
        count += 1
    # the relation instance: base field k, arrows 3 -> 2 -> 1 with the
    # composite killed; the simple at the middle vertex is torsionless but
    # fails the combinatorial monic check
    pres = AlgebraPresentation(QQ, 1, ["1"], [1], [(0, 0, 0, 1)], idempotents=[[1]])
    k = validate_algebra(pres, label="k")
    Q = Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])
    T = build_tensor(k, Q)
    from monomod.modules import zero_module

    kmod = regular_modules(k)[0]
    z = zero_module(k)
    rep = QuiverRep(T, {1: z, 2: kmod, 3: z},
                    {"a": ModuleMap.zero(z, kmod), "b": ModuleMap.zero(kmod, z)})
    v = monic_check(rep, "combinatorial")
    assert v.status == Verdict.FAILS
    flat = rep_to_module(rep)
    assert classify(flat, bound=3, seed=0).torsionless
    _report(7, True, "60 submodules of projectives combinatorially monic; "
            "relation instance torsionless yet non-monic", t0)


def test_criterion_08_bounded_consistency(kx2a):
    t0 = time.time()
    T = build_tensor(kx2a, Quiver([1, 2], [("g", 2, 1)]))
    rng = random.Random(31)
    bound = 6

    def perp_predicate(Z):
        return is_semi_gp(Z, bound, seed=0)

    regT = regular_modules(T.flat)[0]
    regT2, _i, _p = __import__("monomod.modules", fromlist=["direct_sum"]).direct_sum(
        [regT, regT]
    )
    checked = 0
    definite_pairs = 0
    disagreements = 0
    while checked < 40:
        big = regT if rng.random() < 0.5 else regT2
        sub, _ = random_submodule(big, rng)
        if sub.dim == 0 or sub.dim > 10:
            continue
        rep = module_to_rep(T, sub)
        if monic_check(rep, "combinatorial").status != Verdict.HOLDS:
            continue
        checked += 1
        lhs = is_semi_gp(sub, bound, seed=0)
        rhs = mon_membership(rep, perp_predicate, bound=bound)
        if lhs.definite and rhs.definite:
            definite_pairs += 1
            if lhs.status != rhs.status:
                disagreements += 1
    _report(8, disagreements == 0 and definite_pairs >= 10,
            f"40 monic samples; {definite_pairs} definite pairs, "
            f"{disagreements} disagreements", t0)


def test_criterion_09_loop_arrow_instance():
    t0 = time.time()
    ex = lsgp_example()
    S1, S2, P2, I1, I2 = ex["modules"]
    assert ext_dims(S2, P2, 1).dims[1] != 0
    assert ext_dims(I2, S1, 1).dims[1] != 0
    assert ext_dims(I1, S1, 2).dims[2] != 0
    assert ext_dims(I1, S2, 1).dims[1] != 0
    witnesses = {}
    for name, m in zip(ex["names"], ex["modules"]):
        v = is_semi_gp(m, 6, seed=0)
        if name in ("S(1)", "P(2)"):
            assert v.status == Verdict.HOLDS
        else:
            assert v.status == Verdict.FAILS and v.witness["degree"] <= 6
            witnesses[name] = v.witness["degree"]
    _report(9, True, f"Ext displays reproduce; non-projective witnesses {witnesses}", t0)


def test_criterion_10_homology_soundness(kx2a):
    t0 = time.time()
    loop = lsgp_example()["algebra"]
    rng = random.Random(99)
    # resolution independence on 50 random modules
    for i in range(50):
        A = kx2a if i % 2 else loop
        m = random_module(A, rng, max_dim=5, allow_zero=False)
        n = random_module(A, rng, max_dim=4, allow_zero=False)
        assert ext_dims(m, n, 4, minimal=True).dims == ext_dims(
            m, n, 4, minimal=False
        ).dims
    # triangle identity on 50 random modules
    for i in range(50):
        A = kx2a if i % 2 else loop
        m = random_module(A, rng, max_dim=5, allow_zero=False)
        comp = dual_map(canonical_map(m)).compose(canonical_map(a_dual(m).dual))
        assert comp.matrix.is_identity()
    # the Kuenneth convolution identity on 20 outer tensors at bound 4
    T = build_tensor(kx2a, Quiver([1, 2], [("g", 2, 1)]))
    regL = regular_modules(T.flat)[0]
    regA = regular_modules(kx2a)[0]
    regB = regular_modules(T.B)[0]
    for _ in range(20):
        X = random_module(kx2a, rng, max_dim=4, allow_zero=False)
        P = random_module(T.B, rng, max_dim=4, allow_zero=False)
        XP = outer_tensor(T, X, P)
        lhs = ext_dims(XP, regL, 4).dims
        ea = ext_dims(X, regA, 4).dims
        eb = ext_dims(P, regB, 4).dims
        for i in range(5):
            assert lhs[i] == sum(ea[p] * eb[i - p] for p in range(i + 1))
    _report(10, True, "50 resolution-independence, 50 triangle identities, "
            "20 convolution identities: zero failures", t0)
