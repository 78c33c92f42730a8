import json
from fractions import Fraction

import pytest

from monomod.algebra import AlgebraPresentation, multiply, validate_algebra
from monomod.duality import classify
from monomod.errors import ValidationError
from monomod.gallery import (
    LAMBDA_LABELS,
    dual_iso_omega2,
    dual_iso_theta,
    generic_M,
    generic_M_prime,
    ideal_A_w,
    ideal_A_w_A,
    lambda_element,
    lambda_q,
    lsgp_example,
    module_M1qc,
    run_scenario,
    standard_family,
)
from monomod.linalg import GF, QQ, SpanAccumulator
from monomod.modules import Verdict, _json_safe


def test_lambda_q_structure(lambda2):
    assert lambda2.dim == 6
    assert lambda2.basis_labels == LAMBDA_LABELS
    assert not lambda2.q_finite_order_warning


def test_lambda_q_value_divides_exactly():
    # callers compute with q_value by Python's operators, e.g. -1 / q
    q = lambda_q(QQ, 2).q_value
    assert type(q) is Fraction
    assert type(-1 / q) is Fraction and -1 / q == Fraction(-1, 2)


def test_lambda_q_errors_and_warnings():
    with pytest.raises(ValidationError):
        lambda_q(QQ, 0)
    assert lambda_q(QQ, 1).q_finite_order_warning
    assert lambda_q(QQ, -1).q_finite_order_warning
    assert lambda_q(GF(5), 2).q_finite_order_warning
    assert not lambda_q(QQ, Fraction(3, 2)).q_finite_order_warning


def test_lambda_q_j3_vanishes(lambda2):
    rad = [list(v) for v in lambda2.radical_basis()]
    sq = [lambda2.product_vectors(u, v) for u in rad for v in rad]
    sq = [v for v in sq if any(v)]
    for u in rad:
        for v in sq:
            assert not any(lambda2.product_vectors(u, v))


def test_sign_swap_is_still_associative():
    # replacing xy = -q.yx by xy = +q.yx produces the table of the algebra
    # with parameter -q, which is associative: associativity cannot see the
    # sign because all triple products of radical elements vanish
    A = lambda_q(QQ, 2)
    consts = []
    for (i, j), terms in A.table.items():
        for k, c in terms:
            if (i, j) == (1, 2):
                consts.append((i, j, k, -c))
            else:
                consts.append((i, j, k, c))
    pres = AlgebraPresentation(QQ, 6, LAMBDA_LABELS, list(A.unit), consts,
                               idempotents=[list(A.idempotents[0])])
    B = validate_algebra(pres)
    minus2 = lambda_q(QQ, -2)
    assert B.table == minus2.table


def test_degree_one_mutation_fails():
    # a mutation that leaves the radical filtration does break associativity
    A = lambda_q(QQ, 2)
    consts = []
    for (i, j), terms in A.table.items():
        for k, c in terms:
            consts.append((i, j, k, c))
    consts.append((1, 2, 2, QQ.one))  # x.y gains a spurious y component
    pres = AlgebraPresentation(QQ, 6, LAMBDA_LABELS, list(A.unit), consts)
    with pytest.raises(ValidationError) as ei:
        validate_algebra(pres)
    assert ei.value.witness is not None


def test_M_family_dims(lambda2):
    for (a, b, c) in [(1, -2, 0), (1, -2, 5), (0, 1, 0), (3, 1, -1), (0, 0, 1)]:
        assert generic_M(lambda2, a, b, c).dim == 3
    with pytest.raises(ValidationError):
        generic_M(lambda2, 0, 0, 0)


def test_standard_family_contract(lambda2, monkeypatch):
    from monomod import gallery

    built = []

    def spy(A, c):
        built.append(c)
        return module_M1qc(A, c)

    monkeypatch.setattr(gallery, "module_M1qc", spy)
    fam = standard_family(QQ, 2, Fraction(1))
    assert sorted(fam) == ["M", "X_c", "algebra", "f1", "finite_order_warning", "parent", "q"]
    assert fam["X_c"].X.dim + fam["X_c"].Y.dim == 9
    assert fam["M"].dim == 3
    f1 = fam["f1"]
    assert list(f1.matrix.column(0)) == lambda_element(lambda2, {"x": 1, "y": -1})
    # M(1,-q,c) is built once: f1 and X(c) both read the family's M
    assert len(built) == 1
    assert f1.source is fam["M"] is fam["X_c"].Y


def test_dual_iso_family_builds_only_modules_over_lambda_q(monkeypatch):
    # the scenario reads Lambda(q), M(1,-q,c) and M'(1,-q^-1,0) alone: one
    # algebra per run, one M per c, and no 2x2 extension
    from monomod import gallery, triangular

    calls = {"lambda_q": 0, "module_M1qc": 0, "build_triangular": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    counting(gallery, "lambda_q")
    counting(gallery, "module_M1qc")
    counting(triangular, "build_triangular")
    sc = run_scenario("dual-iso-family", {})
    assert not sc.failed and not sc.unknown
    assert calls == {"lambda_q": 1, "module_M1qc": 3, "build_triangular": 0}


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_dual_iso_family_reports_both_claims_at_q_1(field):
    # no dual-iso claim reads omega2, which needs g(1~') in A(x-y)A and so
    # does not exist at q = 1: the scenario still reports both claims per c
    sc = run_scenario("dual-iso-family", {"q": 1, "field": field})
    assert [c["anchor"] for c in sc.claims] == ["dual-iso", "dual-iso-chain"] * 3
    assert [c["status"] for c in sc.claims] == ["pass"] * 6


def test_x_family_reports_every_claim_at_q_1(capsys):
    # omega2 does not exist at q = 1, so only the claim that reads it is
    # undecided; the others fail or pass at this finite-order q
    from monomod import cli

    assert cli.main(["verify", "x-family", "--q=1"]) == 1
    claims = json.loads(capsys.readouterr().out)["claims"]
    assert len(claims) == 11
    status = {c["anchor"]: c["status"] for c in claims}
    assert status["finite-order-warning"] == "unknown"
    mult = claims[-2]
    assert mult["anchor"] == "x-family/canonical-map-as-multiplication"
    assert (mult["status"], mult["data"]) == ("unknown", {"reason": "g(1~') is not in A(x-y)A"})


def test_classification_of_M_family(lambda2):
    for c in [0, 1, -1, 2, Fraction(1, 2)]:
        M = module_M1qc(lambda2, Fraction(c))
        rep = classify(M, bound=6, seed=0)
        assert not rep.torsionless
        assert rep.semi_gp.status != Verdict.FAILS
        assert rep.dual_semi_gp.status != Verdict.FAILS


def test_ideal_decomposition(lambda2):
    w = lambda_element(lambda2, {"x": 1, "y": -1})
    Aw, _ = ideal_A_w(lambda2, w)
    AwA, _ = ideal_A_w_A(lambda2, w)
    assert Aw.dim == 2 and AwA.dim == 3
    acc = SpanAccumulator(QQ, 6)
    for i in range(6):
        e = [QQ.zero] * 6
        e[i] = QQ.one
        acc.add(lambda2.product_vectors(e, w))
    assert not acc.contains(lambda_element(lambda2, {"zx": 1}))


def test_lsgp_example_shapes(loop_arrow):
    assert loop_arrow["algebra"].dim == 4
    assert [m.dim for m in loop_arrow["modules"]] == [1, 1, 3, 2, 2]


def test_dual_iso_chain_explicit(lambda2):
    fam = standard_family(QQ, 2, Fraction(0))
    theta = dual_iso_theta(fam["M"])
    omega2 = dual_iso_omega2(lambda2)
    assert theta.is_isomorphism_map()
    assert omega2.is_isomorphism_map()
    assert omega2.target.dim == 3


def test_scenarios_pass():
    for name, params in [
        ("dual-iso-family", {}),
        ("approximation-pipeline", {}),
        ("loop-arrow-sgp", {}),
        ("t2-lift-sampled", {"samples": 4}),
    ]:
        sc = run_scenario(name, params)
        assert not sc.failed, (name, sc.failed)


def test_scenario_determinism():
    a = run_scenario("dual-iso-family", {"c_values": (0,)}).describe()
    b = run_scenario("dual-iso-family", {"c_values": (0,)}).describe()
    assert json.dumps(_json_safe(a), sort_keys=True) == json.dumps(
        _json_safe(b), sort_keys=True
    )


def test_unknown_scenario():
    with pytest.raises(ValidationError):
        run_scenario("no-such-scenario")


def test_prime_field_end_to_end():
    # the whole pipeline over F_7: algebra, modules, duals, classification,
    # and a triple with its dual bundle
    from monomod.algebra import regular_modules
    from monomod.duality import canonical_map, classify
    from monomod.gallery import f1_map
    from monomod.triangular import t2_algebra, t2_dual_bundle, t2_triple

    F = GF(7)
    A = lambda_q(F, 2)
    assert A.q_finite_order_warning  # 2 has finite order mod 7
    M = module_M1qc(A, F.of(1))
    assert M.dim == 3
    rep = classify(M, bound=4, seed=0)
    assert not rep.torsionless
    phi = canonical_map(M)
    assert phi.kernel_dim() == 1 and phi.cokernel_dim() == 1
    T = t2_algebra(A)
    Xc = t2_triple(T, regular_modules(A)[0], M, f1_map(M))
    b = t2_dual_bundle(Xc)  # exact identities assert internally
    assert b.dual_triple.U.dim == 3 and b.dual_triple.V.dim == 6
    Mp = generic_M_prime(A, F.one, F.neg(F.inv(F.of(2))), F.zero)
    from monomod.duality import a_dual
    from monomod.modules import is_isomorphic

    v = is_isomorphic(a_dual(M).dual, Mp, seed=0)
    assert v.status == Verdict.HOLDS


def test_finite_order_warning_is_real():
    # over F_7 the parameter 2 has multiplicative order 3 and the clean-Ext
    # expectation for the X(c) family genuinely breaks: a witness appears
    # at degree 4 -- precisely what the finite-order warning flags
    from monomod.algebra import regular_modules
    from monomod.gallery import f1_map
    from monomod.homology import is_semi_gp
    from monomod.triangular import t2_algebra, t2_triple

    F = GF(7)
    A = lambda_q(F, 2)
    assert A.q_finite_order_warning
    T = t2_algebra(A)
    M = module_M1qc(A, F.of(0))
    Xc = t2_triple(T, regular_modules(A)[0], M, f1_map(M))
    v = is_semi_gp(Xc.flatten(), 6, seed=0)
    assert v.status == Verdict.FAILS
    assert v.witness["degree"] == 4
