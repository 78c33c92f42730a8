import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from monomod.algebra import AlgebraPresentation, regular_modules, validate_algebra
from monomod import config, homology
from monomod.duality import classify
from monomod.errors import ValidationError
from monomod.gallery import ideal_A_w_A, lambda_element, lambda_q, module_M1qc
from monomod.homology import (
    HomComplex,
    _image_in_radical,
    _kernel_module,
    _slot_block_matrix,
    _SlotSum,
    _Step,
    ext_comparison_table,
    ext_dims,
    ext_induced_map,
    has_minimal_covers,
    hom_space_via_presentation,
    is_semi_gp,
    lift_chain_map,
    resolution,
    resolve,
    tor_dims,
)
from monomod.linalg import GF, QQ, Eliminator, Matrix, basis_vector
from monomod.modules import (
    ModuleMap,
    Verdict,
    hom_space,
    idempotent_slice,
    is_isomorphic,
    k_dual,
    module_on_invariant_columns,
    simples_and_projectives,
    submodule_generated,
    tensor_over,
    validate_module,
)
from monomod.quiver import Quiver, _right_simple_resolutions, build_tensor
from monomod.sampling import random_map, random_module
from monomod.triangular import (
    _bimodule_hypotheses,
    classify_triple,
    t2_algebra,
    t2_dual_bundle,
)


def test_periodic_resolution_kx2(kx2):
    S = simples_and_projectives(kx2)["simples"][0]
    r = resolve(S, 4, minimal=True)
    assert [t.dim for t in r.terms] == [2, 2, 2, 2, 2]
    # every differential is multiplication by x
    x_mult = regular_modules(kx2)[0].action(1)
    for d in r.differentials:
        assert d.matrix == x_mult
    assert r.check_certificates()


def test_resolution_of_projective(kx2):
    reg = regular_modules(kx2)[0]
    r = resolve(reg, 3, minimal=True)
    assert r.terms[0].dim == reg.dim
    assert all(t.dim == 0 for t in r.terms[1:])
    assert r.augmentation.is_surjective() and r.augmentation.is_injective()


def test_resolution_dims_stable(lambda2):
    dims1 = [t.dim for t in resolve(module_M1qc(lambda2, Fraction(1)), 3).terms]
    dims2 = [t.dim for t in resolve(module_M1qc(lambda2, Fraction(1)), 3).terms]
    assert dims1 == dims2


def test_ext_k_regular_vanishes(kx2):
    S = simples_and_projectives(kx2)["simples"][0]
    reg = regular_modules(kx2)[0]
    assert ext_dims(S, reg, 6).dims == [1, 0, 0, 0, 0, 0, 0]


def test_ext_displays_loop_arrow(loop_arrow):
    S1, S2, P2, I1, I2 = loop_arrow["modules"]
    assert ext_dims(S2, P2, 1).dims[1] != 0
    assert ext_dims(I2, S1, 1).dims[1] != 0
    assert ext_dims(I1, S1, 2).dims[2] != 0
    assert ext_dims(I1, S2, 1).dims[1] != 0


def test_ext_from_projective_vanishes(loop_arrow, rng):
    A = loop_arrow["algebra"]
    P2 = loop_arrow["modules"][2]
    for _ in range(4):
        n = random_module(A, rng, max_dim=5, allow_zero=False)
        assert ext_dims(P2, n, 4).dims[1:] == [0, 0, 0, 0]


def test_ext_dim0_is_hom_dim(kx2, rng):
    for _ in range(6):
        m = random_module(kx2, rng, max_dim=5, allow_zero=False)
        n = random_module(kx2, rng, max_dim=5, allow_zero=False)
        assert ext_dims(m, n, 2).dims[0] == len(hom_space(m, n))


def test_resolution_independence(kx2, loop_arrow, rng):
    for A in (kx2, loop_arrow["algebra"]):
        reg = regular_modules(A)[0]
        for _ in range(8):
            m = random_module(A, rng, max_dim=5, allow_zero=False)
            n = random_module(A, rng, max_dim=4, allow_zero=False)
            assert ext_dims(m, n, 4, minimal=True).dims == ext_dims(
                m, n, 4, minimal=False
            ).dims


def test_ext_duality_sanity(kx2, loop_arrow, rng):
    # dim Ext^i(m, n) = dim Ext^i(D(n), D(m)) over the opposite side
    for A in (kx2, loop_arrow["algebra"]):
        for _ in range(4):
            m = random_module(A, rng, max_dim=4, allow_zero=False)
            n = random_module(A, rng, max_dim=4, allow_zero=False)
            lhs = ext_dims(m, n, 3).dims
            rhs = ext_dims(k_dual(n), k_dual(m), 3).dims
            assert lhs == rhs


def test_tor_basics(kx2, trivial_k, rng):
    S = simples_and_projectives(kx2)["simples"][0]
    Sr = k_dual(S)
    assert tor_dims(Sr, S, 4) == [1, 1, 1, 1, 1]
    reg = regular_modules(kx2)[0]
    assert tor_dims(Sr, reg, 4) == [1, 0, 0, 0, 0]
    k_simple = simples_and_projectives(trivial_k)["simples"][0]
    assert tor_dims(k_dual(k_simple), k_simple, 3) == [1, 0, 0, 0]


def test_tor_dim0_matches_tensor(kx2, rng):
    for _ in range(6):
        u = random_module(kx2, rng, side="right", max_dim=4, allow_zero=False)
        x = random_module(kx2, rng, side="left", max_dim=4, allow_zero=False)
        assert tor_dims(u, x, 2)[0] == tensor_over(u, x).dim


def test_semi_gp_projective(kx2, loop_arrow):
    for A in (kx2, loop_arrow["algebra"]):
        reg = regular_modules(A)[0]
        v = is_semi_gp(reg, 6)
        assert v.status == Verdict.HOLDS


def test_semi_gp_k_over_kx2(kx2):
    S = simples_and_projectives(kx2)["simples"][0]
    v = is_semi_gp(S, 6)
    assert v.status == Verdict.HOLDS
    assert v.certificate["syzygy_period"] == (1, 2)


def test_semi_gp_witnesses_loop_arrow(loop_arrow):
    # every non-projective indecomposable fails; I(1)'s computed witness is
    # at degree 2 (Ext^1(I(1), A) vanishes by the Euler characteristic of
    # 0 -> S(2) -> P(2) -> I(1) -> 0)
    names = loop_arrow["names"]
    expected = {"S(2)": 1, "I(1)": 2, "I(2)": 1}
    for name, m in zip(names, loop_arrow["modules"]):
        v = is_semi_gp(m, 6, seed=0)
        if name in expected:
            assert v.status == Verdict.FAILS
            assert v.witness["degree"] == expected[name]
        else:
            assert v.status == Verdict.HOLDS


def test_semi_gp_AwA_witness(lambda2):
    AwA, _ = ideal_A_w_A(lambda2, lambda_element(lambda2, {"x": 1, "y": -1}))
    v = is_semi_gp(AwA, 6, seed=0)
    assert v.status == Verdict.FAILS
    assert v.witness["degree"] == 1


def test_right_side_resolutions(loop_arrow):
    A = loop_arrow["algebra"]
    regR = regular_modules(A)[1]
    sp = simples_and_projectives(A, side="right")
    S = sp["simples"][0]
    r = resolve(S, 3, minimal=True)
    assert r.check_certificates()
    assert ext_dims(S, regR, 3).dims[0] == len(hom_space(S, regR))


def test_hom_via_presentation_is_hom(lambda2):
    M = module_M1qc(lambda2, Fraction(0))
    reg = regular_modules(lambda2)[0]
    mats = hom_space_via_presentation(M, reg)
    assert len(mats) == 3
    for F in mats:
        ModuleMap(M, reg, F)  # intertwining check


def test_ext_induced_identity(kx2, rng):
    # the identity lifts to an invertible map on every Ext group
    m = random_module(kx2, rng, max_dim=4, allow_zero=False)
    reg = regular_modules(kx2)[0]
    for deg in (1, 2):
        M, tdim, sdim = ext_induced_map(ModuleMap.identity(m), reg, deg)
        assert tdim == sdim
        assert M.rank() == tdim


def test_ext_induced_split_projection(kx2, rng):
    # projecting A (+) k -> A induces the zero-to-zero map in degree >= 1
    from monomod.modules import direct_sum

    reg = regular_modules(kx2)[0]
    S = simples_and_projectives(kx2)["simples"][0]
    total, incs, prs = direct_sum([reg, S])
    f = incs[0]  # A -> A (+) k
    M, tdim, sdim = ext_induced_map(f, reg, 1)
    assert sdim == 0  # Ext^1(A, A) = 0
    assert tdim == ext_dims(total, reg, 1).dims[1]


def test_ext_induced_map_on_nonzero_ext(loop_arrow):
    # Ext^1(S(2), P(2)) is one-dimensional: the identity of S(2) induces the
    # 1 x 1 identity on it and the zero map induces zero
    S1, S2, P2, I1, _I2 = loop_arrow["modules"]
    M, tdim, sdim = ext_induced_map(ModuleMap.identity(S2), P2, 1)
    assert (tdim, sdim) == (1, 1)
    assert M == Matrix.identity(QQ, 1)
    M, tdim, sdim = ext_induced_map(ModuleMap.zero(S2, S2), P2, 1)
    assert (tdim, sdim) == (1, 1)
    assert M.is_zero()
    # Ext^2(I(1), S(1)) is one-dimensional and the identity is invertible on it
    table = ext_comparison_table(ModuleMap.identity(I1), S1, 2)
    assert table[1]["degree"] == 2
    assert table[1]["dim_target_side"] == 1
    assert all(row["invertible"] for row in table)


def test_chain_lift_through_free_slots():
    # without declared idempotents the covers are free: every slot has no
    # idempotent, and each lift is solved in the whole of P_i(m')
    A = validate_algebra(AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
    ))
    assert not has_minimal_covers(A)
    S = validate_module([Matrix.from_rows(QQ, [[1]]), Matrix.from_rows(QQ, [[0]])], "left", A)
    f = hom_space(regular_modules(A)[0], S)[0]
    lifts, res_s, res_t = lift_chain_map(f, 2)
    assert all(st.e_index is None
               for step in res_s.steps + res_t.steps for st in step.slot_types)
    assert res_t.steps[0].d_matrix * lifts[0] == f.matrix * res_s.steps[0].d_matrix
    for i in (1, 2):
        assert res_t.steps[i].d_matrix * lifts[i] == lifts[i - 1] * res_s.steps[i].d_matrix
    # Ext^1(S, S) = k, and the identity of S induces the identity on it
    M, tdim, sdim = ext_induced_map(ModuleMap.identity(S), S, 1)
    assert (tdim, sdim) == (1, 1)
    assert M == Matrix.identity(QQ, 1)


def test_minimality_needs_one_dimensional_slot_tops():
    # k x k with the single idempotent 1 = e1 + e2, which is not primitive:
    # its slot A has a 2-dimensional top, so no cover built from it is minimal
    pres = AlgebraPresentation(
        QQ, 2, ["e1", "e2"], [1, 1], [(0, 0, 0, 1), (1, 1, 1, 1)],
        idempotents=[[1, 1]],
    )
    A = validate_algebra(pres, label="k x k")
    S1 = validate_module(
        [Matrix.from_rows(QQ, [[1]]), Matrix.from_rows(QQ, [[0]])], "left", A
    )
    for m in (S1, regular_modules(A)[0]):
        with pytest.raises(ValidationError, match="minimal-unavailable: the algebra has no minimal"):
            resolve(m, 2, minimal=True)
    assert resolve(S1, 2, minimal=False).check_certificates()


def _algebras_without_minimal_covers():
    """M2(Q) with e11, e22, where the slot A.e11 (a column) has a
    2-dimensional top although e11.A.e11 = k, and k x k with the single
    idempotent 1, whose slot A has a 2-dimensional top; each with a simple
    module."""
    units = [(1, 1), (1, 2), (2, 1), (2, 2)]
    consts = [(a, b, units.index((i, l)), 1)
              for a, (i, j) in enumerate(units) for b, (k, l) in enumerate(units) if j == k]
    M2 = validate_algebra(AlgebraPresentation(
        QQ, 4, ["e11", "e12", "e21", "e22"], [1, 0, 0, 1], consts,
        idempotents=[[1, 0, 0, 0], [0, 0, 0, 1]],
    ), label="M2(Q)")
    column = validate_module(
        [Matrix.from_rows(QQ, [[int((r, c) == (i, j)) for c in (1, 2)] for r in (1, 2)])
         for (i, j) in units], "left", M2)
    kk = validate_algebra(AlgebraPresentation(
        QQ, 2, ["e1", "e2"], [1, 1], [(0, 0, 0, 1), (1, 1, 1, 1)], idempotents=[[1, 1]],
    ), label="k x k")
    S1 = validate_module([Matrix.from_rows(QQ, [[1]]), Matrix.from_rows(QQ, [[0]])], "left", kk)
    return [(M2, column), (kk, S1)]


def test_algebras_without_minimal_covers_get_free_covers():
    # semisimple, so every Ext^i and Tor_i with i >= 1 vanishes; the free
    # covers give no syzygy period, so no semi-GP verdict is certified
    for A, S in _algebras_without_minimal_covers():
        assert A.has_radical() and A.idempotents is not None
        assert not has_minimal_covers(A)
        reg, regr = regular_modules(A)
        for m in (S, reg):
            r = resolve(m, 2)
            assert r.minimal is False and r.check_certificates()
            assert all(st.e_index is None for st in r.terms[0].slot_types)
            assert ext_dims(m, reg, 2).dims == [len(hom_space(m, reg)), 0, 0]
            assert tor_dims(regr, m, 2) == [m.dim, 0, 0]
            assert is_semi_gp(m, 2).status == Verdict.UNKNOWN
            rep = classify(m, bound=2)
            assert rep.torsionless and rep.semi_gp.status == Verdict.UNKNOWN


def test_explicit_minimal_raises_before_any_cover_is_built(monkeypatch):
    built = []
    build = homology._build_cover_step
    monkeypatch.setattr(homology, "_build_cover_step",
                        lambda m, minimal: built.append(m) or build(m, minimal))
    simples = [S for _A, S in _algebras_without_minimal_covers()]
    for S in simples:
        with pytest.raises(ValidationError, match="minimal-unavailable"):
            resolve(S, 2, minimal=True)
    assert built == []
    # S is cyclic, so its free cover is one copy of the algebra
    assert [resolve(S, 2).terms[0].dim for S in simples] == [4, 2]
    assert built


def test_gallery_and_benchmark_algebras_have_minimal_covers():
    from monomod.gallery import _kx2_algebra, lsgp_algebra

    kx2_f5 = validate_algebra(AlgebraPresentation(
        GF(5), 2, ["1", "x"], [1, 0], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0]],
    ))
    k_f5 = validate_algebra(AlgebraPresentation(GF(5), 1, ["1"], [1], [(0, 0, 0, 1)],
                                                idempotents=[[1]]))
    bases = [lambda_q(QQ, 2), lambda_q(QQ, 3), lambda_q(GF(3), 2), lambda_q(GF(5), 2),
             lsgp_algebra(QQ), _kx2_algebra()]
    algebras = bases + [t2_algebra(A).flat for A in bases]
    quivers = [Quiver([1, 2], [("g", 2, 1)]),
               Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)]),
               Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])]
    algebras += [build_tensor(A, Q).flat
                 for A in (kx2_f5, lambda_q(GF(5), 2)) for Q in quivers]
    algebras.append(build_tensor(k_f5, quivers[2]).flat)
    # checking the declared radical of Lambda(2) (x) kA3 (dim 36) builds a
    # 1089 x 36 matrix, over the default cap: the benchmark's known cap fault
    before = config.dimension_cap()
    config.set_dimension_cap(2048)
    try:
        assert all(has_minimal_covers(A) for A in algebras)
    finally:
        config.set_dimension_cap(before)


def test_ext_matches_tor_against_dual(loop_arrow):
    # Ext^i(m, n) = D Tor_i(D(n), m): the slot-block matrices of Hom(P, n)
    # and of D(n) (x) P, built in opposite directions, have equal homology
    cases = [(list(loop_arrow["modules"]) + [regular_modules(loop_arrow["algebra"])[0]], 4)]
    L = lambda_q(QQ, 2)
    cases.append(([simples_and_projectives(L)["simples"][0], regular_modules(L)[0],
                   module_M1qc(L, Fraction(3, 2))], 2))
    L5 = lambda_q(GF(5), 2)
    cases.append(([simples_and_projectives(L5)["simples"][0], regular_modules(L5)[0]], 2))
    for mods, b in cases:
        for m in mods:
            for n in mods:
                assert ext_dims(m, n, b).dims == tor_dims(k_dual(n), m, b)


def test_resolution_uses_minimal_covers_exactly_when_available():
    # minimal covers need declared idempotents and a computable radical; the
    # trace form gives no radical of k[x]/(x^2) over GF(2)
    cases = [(QQ, [[1, 0]], True), (QQ, None, False), (GF(2), [[1, 0]], False)]
    for field, idempotents, minimal in cases:
        A = validate_algebra(AlgebraPresentation(
            field, 2, ["1", "x"], [1, 0], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
            idempotents=idempotents,
        ))
        assert has_minimal_covers(A) is minimal
        S = validate_module(
            [Matrix.from_rows(field, [[1]]), Matrix.from_rows(field, [[0]])], "left", A
        )
        res = resolution(S, length=2)
        assert res.minimal is minimal
        assert resolution(S, minimal) is res
        # periodic syzygies certify vanishing only over minimal resolutions
        assert is_semi_gp(S, 3).status == (Verdict.HOLDS if minimal else Verdict.UNKNOWN)


def _x0_flats():
    from monomod.gallery import standard_family
    from monomod.triangular import t2_dual_bundle

    Xc = standard_family(QQ, Fraction(2), Fraction(0))["X_c"]
    return Xc.flatten(), t2_dual_bundle(Xc).dual_triple.flatten()


def test_trace_radical_refutations_of_x0_syzygies_are_nilpotent():
    # an independent check of the refutation: sampled combinations g.f of
    # the Hom bases are nilpotent on the syzygy pairs it refutes
    flat, _dual = _x0_flats()
    res = resolution(flat, length=6)
    syz = [res.syzygy(i) for i in range(1, 7)]
    rng = random.Random(5)
    refuted = 0
    for i, m in enumerate(syz):
        for n in syz[i + 1:]:
            v = is_isomorphic(m, n, seed=0)
            assert v.status == Verdict.FAILS
            if v.witness["reason"] != "composites lie in the trace radical of End":
                continue
            refuted += 1
            H, Hback = hom_space(m, n), hom_space(n, m)
            for _ in range(3):
                F = sum((h.matrix.scale(QQ.random_element(rng)) for h in H[1:]),
                        H[0].matrix.scale(QQ.random_element(rng)))
                G = sum((h.matrix.scale(QQ.random_element(rng)) for h in Hback[1:]),
                        Hback[0].matrix.scale(QQ.random_element(rng)))
                C = G * F
                power = C
                for _ in range(m.dim - 1):
                    power = power * C
                assert power.is_zero()
    assert refuted == 15


def _semi_gp_by_every_pair(m, bound, seed=0):
    """is_semi_gp's verdict by the full lexicographic loop over the syzygy
    pairs, with no pruning: the oracle for the pruned search."""
    reg = regular_modules(m.algebra)[0 if m.side == "left" else 1]
    if m.dim == 0:
        return Verdict.holds({"zero_module": True})
    dims = ext_dims(m, reg, bound).dims
    for i in range(1, bound + 1):
        if dims[i]:
            return Verdict.fails({"degree": i, "ext_dim": dims[i]})
    res = resolution(m, length=bound)
    if not res.minimal:
        return Verdict.unknown(bound)
    syz = [res.syzygy(i) for i in range(1, bound + 1)]
    for i, s in enumerate(syz, start=1):
        if s.dim == 0:
            return Verdict.holds({"zero_syzygy_at": i, "finite_projective_dimension": True})
    for i in range(1, bound + 1):
        for j in range(i + 1, bound + 1):
            if syz[i - 1].dim == syz[j - 1].dim:
                v = is_isomorphic(syz[i - 1], syz[j - 1], seed=seed)
                if v.status == Verdict.HOLDS:
                    return Verdict.holds({"syzygy_period": (i, j), "isomorphism": v.certificate})
    return Verdict.unknown(bound)


def _nakayama_simple():
    """S1 over the path algebra of 1 -a-> 2 -b-> 1 modulo paths of length 3.
    Its syzygies [2;1], S2, [1;2], S1, [2;1], S2 have dimensions 2, 1, 2, 1,
    2, 1, and the first isomorphic pair is (1, 5)."""
    pres = AlgebraPresentation(
        QQ, 6, ["e1", "e2", "a", "b", "ba", "ab"], [1, 1, 0, 0, 0, 0],
        [(0, 0, 0, 1), (1, 1, 1, 1), (2, 0, 2, 1), (1, 2, 2, 1), (3, 1, 3, 1),
         (0, 3, 3, 1), (3, 2, 4, 1), (4, 0, 4, 1), (0, 4, 4, 1), (2, 3, 5, 1),
         (5, 1, 5, 1), (1, 5, 5, 1)],
        idempotents=[[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
    )
    A = validate_algebra(pres, label="Nakayama")
    acts = [Matrix.from_rows(QQ, [[int(i == 0)]]) for i in range(6)]
    return validate_module(acts, "left", A, label="S1")


def _nakayama_draws(*picks):
    """Draws number picks (from 0) of random_module over the Nakayama
    algebra of _nakayama_simple, seed 11."""
    A, rng = _nakayama_simple().algebra, random.Random(11)
    draws = [random_module(A, rng, max_dim=7, allow_zero=False) for _ in range(max(picks) + 1)]
    return [draws[k] for k in picks]


def test_pruned_periodicity_search_matches_every_pair(kx2, loop_arrow):
    periodic = simples_and_projectives(kx2)["simples"][0]   # period (1, 2)
    S1 = _nakayama_simple()
    v = is_semi_gp(S1, 6)
    assert v.certificate["syzygy_period"] == (1, 5)
    # three modules whose isomorphic syzygy pair (1, 5) has unequal action
    # matrices: a search that refutes pairs it should not loses the period
    draws = _nakayama_draws(9, 14, 15)
    for m in draws:
        res = resolution(m, length=5)
        assert res.syzygy(1).actions != res.syzygy(5).actions
        assert is_semi_gp(m, 6).certificate["syzygy_period"] == (1, 5)
    mods = list(_x0_flats()) + loop_arrow["modules"] + [periodic, S1] + draws
    for m in mods:
        for bound in (1, 2, 6):
            assert is_semi_gp(m, bound).describe() == _semi_gp_by_every_pair(m, bound).describe()


def test_complex_hom_dims_match_hom_spaces(lambda2, loop_arrow):
    # the dimensions is_semi_gp screens syzygy pairs with, read off the Hom
    # complex into Omega^j, against the Hom spaces themselves
    F7 = GF(7)
    mods = [
        _x0_flats()[0],
        module_M1qc(lambda2, Fraction(3, 2)),
        module_M1qc(lambda_q(F7, 2), Fraction(3, 2)),
        loop_arrow["modules"][3],                # I(1)
        *_nakayama_draws(9),
    ]
    bound = 4
    for m in mods:
        res = resolution(m, length=bound + 1)
        syz = [res.syzygy(i) for i in range(1, bound + 1)]
        assert all(s.dim for s in syz)
        for j, n in enumerate(syz, start=1):
            C = HomComplex(res, n, bound + 1)
            for i, s in enumerate(syz, start=1):
                assert C.cocycle_dim(i) == len(hom_space(s, n)), (m.label, i, j)


def test_semi_gp_of_x_family_screens_every_pair(monkeypatch):
    # X(c) ends in unknown at bound 6 after refuting its five pairs
    # (i, 6); the Hom-dimension screen refutes all five, so no pair
    # reaches is_isomorphic, and the verdict is the every-pair search's
    flat = _x_family(Fraction(3, 2)).flatten()
    expected = _semi_gp_by_every_pair(flat, 6).describe()
    calls = []

    def spy(m, n, *args, **kwargs):
        calls.append((m.dim, n.dim))
        return is_isomorphic(m, n, *args, **kwargs)

    monkeypatch.setattr(homology, "is_isomorphic", spy)
    assert is_semi_gp(flat, 6).describe() == expected
    assert calls == []


def test_semi_gp_screen_builds_no_degree_zero_coboundary(monkeypatch):
    # the screen reads its complexes into Omega^j only through
    # cocycle_dim(i) for i >= 1, so none of them builds Hom(P_0, Omega^j) ->
    # Hom(P_1, Omega^j); the complex into the regular module does
    flat = _x_family(Fraction(3, 2)).flatten()
    first = resolution(flat, length=1).steps[0].slot_types
    reg = regular_modules(flat.algebra)[0]
    built = []
    block = homology._slot_block_matrix

    def spy(n, source_types, *args):
        built.append((n is reg, source_types is first))
        return block(n, source_types, *args)

    monkeypatch.setattr(homology, "_slot_block_matrix", spy)
    assert is_semi_gp(flat, 6).status == Verdict.UNKNOWN
    assert (True, True) in built
    assert (False, False) in built
    assert (False, True) not in built


def _kernels_by_invariant_columns(step):
    """The kernel of a step by the route it was read by before: one solve of
    a.K = K.X per algebra basis vector a.  The oracle for _kernel_module."""
    return module_on_invariant_columns(step.proj, step.d_matrix.kernel_matrix())


def test_step_kernels_match_invariant_column_oracle(kx2, lambda2):
    flat, _dual = _x0_flats()
    cases = [
        resolution(flat, length=4),
        resolution(module_M1qc(lambda2, Fraction(1)), length=4),
        resolution(regular_modules(kx2)[0], length=2),        # zero kernels
    ]
    # free covers over GF(2), where no radical is known
    F2 = GF(2)
    pres = AlgebraPresentation(F2, 2, ["1", "x"], [1, 0],
                               [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                               idempotents=[[1, 0]])
    T2 = t2_algebra(validate_algebra(pres, label="k[x]/(x^2) over F2")).flat
    reg2 = regular_modules(T2)[0]
    for j in range(T2.dim):
        M, _ = submodule_generated(reg2, [basis_vector(F2, T2.dim, j)])
        cases.append(resolution(M, minimal=False, length=3))
    # minimal covers over Lambda(2) (x) kA2 over GF(5)
    F5 = GF(5)
    L = build_tensor(lambda_q(F5, 2), Quiver([1, 2], [("g", 2, 1)])).flat
    reg5 = regular_modules(L)[0]
    rng = random.Random(4)
    for _ in range(4):
        v = [F5.of(rng.randint(-2, 2)) if rng.random() < 0.3 else 0 for _ in range(L.dim)]
        M, _ = submodule_generated(reg5, [v])
        cases.append(resolution(M, length=3))
    # periodic resolutions, whose later steps repeat an earlier cover and
    # read their kernel off it
    periodic = [resolution(_fresh_simple_kx2(kx2), length=6),
                resolution(_periodic_t2_quotient(kx2), length=5)]
    for res in periodic:
        assert len({id(step.cover) for step in res.steps}) < len(res.steps)
    cases.extend(periodic)
    zero_kernels = 0
    for res in cases:
        for step in res.steps:
            kernel, incl = _kernels_by_invariant_columns(step)
            assert step.kernel.dim == kernel.dim
            assert step.kernel.actions == kernel.actions
            assert step.kernel_incl.matrix == incl.matrix
            assert step.kernel_incl.source is step.kernel
            assert step.kernel_incl.target is step.proj
            zero_kernels += kernel.dim == 0
    assert {res.minimal for res in cases} == {True, False}
    assert {res.steps[0].proj.field for res in cases} == {QQ, F2, F5}
    assert zero_kernels >= 3
    assert max(step.kernel.dim for res in cases for step in res.steps) >= 50
    # columns that are not action-invariant are refused: over k[x]/(x^2),
    # with P_0 = A on the basis 1, x, the kernel of the form "coefficient of
    # x" is spanned by 1, and x.1 = x leaves it; and a seeded linear form on
    # P_0 of X(0).flatten()
    small = cases[2].steps[0]
    big = cases[0].steps[0]
    rng = random.Random(3)
    forms = [Matrix.from_rows(QQ, [[0, 1]]),
             Matrix.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(big.proj.dim)]])]
    for st, form in ((small, forms[0]), (big, forms[1])):
        bad = _Step(st.slot_types, st.offsets, st.proj, form)
        with pytest.raises(ValidationError, match="subspace is not action-invariant"):
            _kernel_module(bad)
        with pytest.raises(ValidationError, match="subspace is not action-invariant"):
            _kernels_by_invariant_columns(bad)


def _fresh_simple_kx2(kx2):
    """The simple k[x]/(x^2)-module, as a new module object with no
    resolution cached on it."""
    S = simples_and_projectives(kx2)["simples"][0]
    return validate_module(list(S.actions), "left", kx2)


def _periodic_t2_quotient(kx2):
    """A seeded 2-dim quotient over T2(k[x]/(x^2)): P_1, P_2, ... all have
    dimension 8 and Omega^2 has the actions of Omega^1."""
    return random_module(t2_algebra(kx2).flat, random.Random(0), max_dim=6, allow_zero=False)


def _spy_cover_builds(monkeypatch):
    """The modules covered by _build_cover_step from now on, in order."""
    covered = []
    build = homology._build_cover_step

    def spy(m, minimal):
        covered.append(m)
        return build(m, minimal)

    monkeypatch.setattr(homology, "_build_cover_step", spy)
    return covered


def test_periodic_resolutions_cover_each_syzygy_once(monkeypatch, kx2):
    covered = _spy_cover_builds(monkeypatch)
    for m, distinct in ((_fresh_simple_kx2(kx2), 1), (_periodic_t2_quotient(kx2), 2)):
        covered.clear()
        res = resolution(m, length=8)
        # steps 0..8 cover the target and Omega^1..Omega^8; one cover per
        # distinct action tuple among them
        contents = [m.actions] + [res.syzygy(i).actions for i in range(1, 9)]
        assert len(covered) == len(set(contents)) == distinct
        assert [n.actions for n in covered] == list(dict.fromkeys(contents))
        assert res.syzygy(2) is res.syzygy(3)
        assert res.syzygy(distinct) is res.syzygy(8)
        assert resolve(m, 8).check_certificates()
        # a repeated step keeps a differential of its own into the step before
        for i in range(1, 9):
            step, prev = res.steps[i], res.steps[i - 1]
            assert step.d_matrix == prev.kernel_incl.matrix * step.cover
            assert step.kernel_incl.target is step.proj


def test_actions_one_entry_apart_get_their_own_cover(monkeypatch, kx2):
    # Omega^1 of the periodic T2 quotient, with one entry of one action
    # changed: the module of its basis with the second vector doubled.  Its
    # own Omega^1 has the actions of the unchanged module, so step 1 is a
    # new cover, and step 2 repeats step 1
    omega = resolution(_periodic_t2_quotient(kx2), length=1).syzygy(1)
    rows = [list(r) for r in omega.actions[1].rows]
    assert rows[2][1] == 1
    rows[2][1] = 2
    acts = list(omega.actions)
    acts[1] = Matrix.from_rows(QQ, rows)
    m = validate_module(acts, "left", omega.algebra)
    covered = _spy_cover_builds(monkeypatch)
    res = resolution(m, length=4)
    assert sum(a != b for a, b in zip(m.actions, omega.actions)) == 1
    assert res.syzygy(1).actions == omega.actions
    assert covered == [m, res.syzygy(1)]
    assert res.steps[1].cover is not res.steps[0].cover
    assert all(step.cover is res.steps[1].cover for step in res.steps[2:])
    assert resolve(m, 4).check_certificates()


def test_semi_gp_asks_is_isomorphic_once_per_syzygy_pair(monkeypatch, kx2):
    # Omega^1, Omega^2, ... of the simple module are one module object, so
    # the pairs (1, 6) and (1, 2) share one is_isomorphic call
    calls = []
    iso = homology.is_isomorphic

    def spy(m, n, **kwargs):
        calls.append((m, n))
        return iso(m, n, **kwargs)

    monkeypatch.setattr(homology, "is_isomorphic", spy)
    S = _fresh_simple_kx2(kx2)
    v = is_semi_gp(S, 6)
    want = _semi_gp_by_every_pair(_fresh_simple_kx2(kx2), 6)
    assert len(calls) == 1
    assert v.status == want.status == Verdict.HOLDS
    assert v.certificate["syzygy_period"] == want.certificate["syzygy_period"] == (1, 2)
    assert v.certificate["isomorphism"].matrix == want.certificate["isomorphism"].matrix


def _t2_kx2_gf2():
    """T2(k[x]/(x^2)) over GF(2): no radical is known, so its covers are free."""
    F2 = GF(2)
    pres = AlgebraPresentation(F2, 2, ["1", "x"], [1, 0],
                               [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                               idempotents=[[1, 0]])
    return t2_algebra(validate_algebra(pres, label="k[x]/(x^2) over F2")).flat


def _slice_basis(n, st):
    """The basis of eN the blocks were read in before: the pivot columns of
    rho(e), e the slot's idempotent or the unit for a free slot."""
    algebra = n.algebra
    e = algebra.unit if st.e_index is None else algebra.idempotents[st.e_index]
    return n.action_of_vector(e).column_space_matrix()


def _blocks_by_solving(n, src_slots, tgt_slots, lam):
    """_slot_block_matrix by the route it took before: every basis vector
    of each source slice is moved by lam(s, t), and the image's coordinates
    are solved for through an Eliminator of the target slice's basis."""
    tgt = [_slice_basis(n, tt) for tt in tgt_slots]
    solvers = [Eliminator(B) for B in tgt]
    cols = []
    for s, st in enumerate(src_slots):
        B = _slice_basis(n, st)
        for b in range(B.ncols):
            v = list(B.column(b))
            col = []
            for t, solver in enumerate(solvers):
                coords = solver.solve(n.action_of_vector(lam(s, t)).apply(v))
                if coords is None:
                    raise ValidationError("vector not in the idempotent part")
                col.extend(coords)
            cols.append(col)
    return Matrix.from_columns(n.field, cols, sum(B.ncols for B in tgt))


def _block_assembly_cases(lambda2, loop_arrow):
    """(module, its algebra's regular modules) for the block assembly
    checks: idempotents neither of which is the unit, the unit as the one
    idempotent, a loop-arrow module, and free slots over GF(2)."""
    T2 = _t2_kx2_gf2()
    reg2 = regular_modules(T2)[0]
    mods = [
        _x0_flats()[0],
        module_M1qc(lambda_q(GF(7), 2), Fraction(3, 2)),
        loop_arrow["modules"][3],                # I(1)
        *(submodule_generated(reg2, [basis_vector(GF(2), T2.dim, j)])[0]
          for j in range(T2.dim)),
    ]
    return [(m, regular_modules(m.algebra)) for m in mods]


def test_slot_blocks_match_per_vector_solves(lambda2, loop_arrow):
    # every Hom-complex delta and every Tor map, built through
    # restricted_action, equals the per-vector solve entry for entry
    bound = 3
    seen = set()
    for m, (left, right) in _block_assembly_cases(lambda2, loop_arrow):
        steps = resolution(m, length=bound + 1).steps
        seen.update((st.e_index is None, st.e_index is not None and
                     m.algebra.idempotents[st.e_index] == m.algebra.unit)
                    for step in steps for st in step.slot_types)
        for n in (left, m):
            C = HomComplex(resolution(m), n, bound + 1)
            for i in range(1, bound + 2):
                ref = _blocks_by_solving(n, steps[i - 1].slot_types, steps[i].slot_types,
                                         lambda j2, j: steps[i].d_elems[j][j2])
                assert C.delta(i - 1).entries() == ref.entries(), (m.label, i)
        for i in range(1, bound + 2):
            def lam(j, j2):
                return steps[i].d_elems[j][j2]
            got = _slot_block_matrix(right, steps[i].slot_types, steps[i - 1].slot_types, lam)
            ref = _blocks_by_solving(right, steps[i].slot_types, steps[i - 1].slot_types, lam)
            assert got.entries() == ref.entries(), (m.label, i)
    # free slots, unit idempotents and proper idempotents all occur
    assert seen == {(True, False), (False, True), (False, False)}


def test_slot_block_refuses_an_image_outside_the_target_slice(lambda2):
    # e0 moves e0.N into itself, not into e1.N: the block from an e0-slot
    # to an e1-slot must be refused, not read as the zero block
    flat = _x0_flats()[0]
    algebra = flat.algebra
    n = regular_modules(algebra)[0]
    e0 = list(algebra.idempotents[0])
    s0, s1 = (homology.slot_type(algebra, "left", k) for k in (0, 1))
    with pytest.raises(ValidationError, match="not in the idempotent part"):
        _slot_block_matrix(n, [s0], [s1], lambda s, t: e0)
    with pytest.raises(ValidationError, match="not in the idempotent part"):
        _blocks_by_solving(n, [s0], [s1], lambda s, t: e0)
    # the same element between e0-slots is the identity of e0.N
    assert _slot_block_matrix(n, [s0], [s0], lambda s, t: e0).is_identity()


def test_idempotent_slice_is_a_rank_factorization(lambda2, loop_arrow):
    # rho(e) = B.R with R.B = I, for every declared idempotent, the unit
    # and 0, over Q, GF(2) and GF(7); B is the pivot columns of rho(e)
    mods = [m for m, _regs in _block_assembly_cases(lambda2, loop_arrow)]
    assert {m.field for m in mods} == {QQ, GF(2), GF(7)}
    for m in mods:
        algebra = m.algebra
        zero = [algebra.field.zero] * algebra.dim
        for e in [*algebra.idempotents, algebra.unit, zero]:
            E = m.action_of_vector(e)
            B, R = idempotent_slice(m, e)
            assert B * R == E
            assert R * B == Matrix.identity(m.field, E.rank())
            assert B == E.column_space_matrix()
        B, R = idempotent_slice(m, algebra.unit)
        assert B.is_identity() and R.is_identity()
        B, R = idempotent_slice(m, zero)
        assert (B.nrows, B.ncols, R.nrows, R.ncols) == (m.dim, 0, 0, m.dim)


def _x_family(c):
    from monomod.gallery import standard_family

    return standard_family(QQ, Fraction(2), c)["X_c"]


def test_hot_paths_assemble_no_projective_term(monkeypatch):
    # a semi-GP decision and a triple classification read every P_i slot by
    # slot: they build many terms and assemble the action matrices of none
    built, assembled = [], []
    init, assemble = _SlotSum.__init__, _SlotSum._assemble_actions

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_assemble(self):
        assembled.append(self)
        return assemble(self)

    monkeypatch.setattr(_SlotSum, "__init__", counting_init)
    monkeypatch.setattr(_SlotSum, "_assemble_actions", counting_assemble)
    Xc = _x_family(Fraction(3, 2))
    assert is_semi_gp(Xc.flatten(), 6).status == Verdict.UNKNOWN
    assert len(built) == 8 and assembled == []
    # the whole x-family scenario: its resolutions reach dim P_i = 162
    from monomod.gallery import run_scenario

    run_scenario("x-family", {"c": Fraction(3, 2)})
    assert max(p.dim for p in built) == 162
    assert assembled == []
    n_built = len(built)
    # classify_triple also lifts the triple's map to the resolutions
    # (ext_comparison_table), through idempotent slots
    rep = classify_triple(_x_family(Fraction(3, 2)), bound=3)
    assert rep["perp_structure"]["ext_comparison"]
    assert len(built) > n_built
    assert assembled == []
    # the radical check of a minimal resolution's certificates reads each
    # P_i slot by slot too
    assert resolve(Xc.flatten(), 4, minimal=True).check_certificates()
    assert assembled == []


def test_radical_check_reads_each_slot_block():
    # d_2 of X(3/2) lands in J.P_1, P_1 = P[e0] (+) P[e1]; a column replaced
    # by the generator of either slot escapes J.P_1 in that slot's block
    res = resolution(_x_family(Fraction(3, 2)).flatten(), True, 2)
    step, prev = res.steps[2], res.steps[1]
    assert [st.e_index for st in prev.slot_types] == [0, 1]
    field, cols = step.d_matrix.field, step.d_matrix.columns()
    assert _image_in_radical(ModuleMap(step.proj, prev.proj, step.d_matrix, check=False))
    for j in range(len(prev.slot_types)):
        bad = Matrix.from_columns(field, cols[:-1] + [prev.gen_vector(j)], prev.proj.dim)
        assert not _image_in_radical(ModuleMap(step.proj, prev.proj, bad, check=False))


def _assembled_actions_cases():
    F2, F5 = GF(2), GF(5)
    L2, L5 = lambda_q(F2, 1), lambda_q(F5, 2)
    pres = AlgebraPresentation(F2, 2, ["1", "x"], [1, 0],
                               [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                               idempotents=[[1, 0]])
    T2 = t2_algebra(validate_algebra(pres, label="k[x]/(x^2) over F2")).flat
    reg2 = regular_modules(T2)[0]
    M2, _ = submodule_generated(reg2, [basis_vector(F2, T2.dim, 1)])
    return [
        (_x_family(Fraction(3, 2)).flatten(), True),
        (simples_and_projectives(L2)["simples"][0], True),
        (M2, False),                                    # free covers, no radical
        (module_M1qc(L5, Fraction(3)), True),
    ]


def test_projective_terms_assemble_block_diagonal_actions_when_read():
    fields = set()
    for m, minimal in _assembled_actions_cases():
        res = resolution(m, minimal, 3)
        assert res.minimal is minimal
        A, field = m.algebra, m.field
        fields.add(field)
        for i in range(4):
            step = res.steps[i]
            P = res.proj(i)
            assert P is step.proj and P.dim == sum(st.dim for st in step.slot_types)
            assert P.actions == tuple(
                Matrix.block_diag(field, [st.module.actions[a] for st in step.slot_types])
                for a in range(A.dim))
            assert P.actions is P.actions
            # the assembled actions make P_i a module and d_i a module map
            assert validate_module(list(P.actions), m.side, A).dim == P.dim
            if i:
                ModuleMap(P, res.proj(i - 1), step.d_matrix).verify()
            else:
                ModuleMap(P, m, step.d_matrix).verify()
        assert resolve(m, 3, minimal).check_certificates()
    assert fields == {QQ, GF(2), GF(5)}


def test_first_read_of_projective_term_from_two_threads():
    res = resolution(_x_family(Fraction(3, 2)).flatten(), length=2)
    step = res.steps[2]
    P = step.proj
    field = P.field
    expected = tuple(
        Matrix.block_diag(field, [st.module.actions[a] for st in step.slot_types])
        for a in range(P.algebra.dim))
    barrier = threading.Barrier(2, timeout=30)
    got = [None, None]

    def read(k):
        barrier.wait()
        got[k] = P.actions

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got[0] == got[1] == expected
    assert got[0] is got[1] is P.actions


def _spy_kernel_builds(monkeypatch, pause=0):
    """The steps whose kernel module is built from now on, in build order;
    each build first sleeps `pause` seconds, so a second reader arrives
    while it runs."""
    built = []

    def spy(step):
        built.append(step)
        time.sleep(pause)
        return _kernel_module(step)

    monkeypatch.setattr("monomod.homology._kernel_module", spy)
    return built


def test_resolutions_build_only_the_kernels_something_reads(monkeypatch, lambda2):
    built = _spy_kernel_builds(monkeypatch)
    # X(3/2)** fails at degree 1: Ext^1 reads P_0, P_1 and P_2, and the
    # covers read the kernels of steps 0 and 1, not the 111-dim one of step 2
    dd = t2_dual_bundle(_x_family(Fraction(3, 2))).double_dual_triple.flatten()
    built.clear()
    v = is_semi_gp(dd, 6)
    assert v.status == Verdict.FAILS and v.witness["degree"] == 1
    res = resolution(dd)
    assert [step.proj.dim for step in res.steps] == [30, 72, 162]
    assert [step.kernel_dim for step in res.steps] == [21, 51, 111]
    assert built == res.steps[:2]
    # a later read builds it once, and it is the kernel the oracle reads
    step = res.steps[2]
    kernel, incl = _kernels_by_invariant_columns(step)
    assert step.kernel.dim == step.kernel_dim == kernel.dim
    assert step.kernel.actions == kernel.actions
    assert step.kernel_incl.matrix == incl.matrix
    assert step.kernel_incl.source is step.kernel is res.syzygy(3)
    assert built == res.steps
    # Ext^0..Ext^n resolve to step n+1 and build the kernels of steps 0..n
    m = module_M1qc(lambda2, Fraction(1))
    built.clear()
    ext_dims(m, regular_modules(lambda2)[0], 3)
    res = resolution(m)
    assert len(res.steps) == 5 and built == res.steps[:4]


def test_every_step_is_built_inside_extend_to(monkeypatch, lambda2):
    # step 0 is built like every later step, while Resolution.extend_to
    # runs, so a timer around extend_to sees every cover
    from monomod import config, homology

    build = homology._build_cover_step
    extend_code = homology.Resolution.extend_to.__code__
    inside = []

    def spy(m, minimal):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not extend_code:
            frame = frame.f_back
        inside.append(frame is not None)
        return build(m, minimal)

    monkeypatch.setattr(homology, "_build_cover_step", spy)
    res = resolution(module_M1qc(lambda2, Fraction(7)), length=2)
    assert len(res.steps) == 3
    assert inside == [True, True, True]


def test_zero_kernel_tests_read_the_kernel_dimension(monkeypatch):
    built = _spy_kernel_builds(monkeypatch)
    # the bimodule of T2(A) is A on both sides, projective: both resolutions
    # stop at step 0 and build no kernel
    parent = t2_algebra(lambda_q(QQ, 3))
    hyp = _bimodule_hypotheses(parent, 3)
    assert hyp["left_proj_dim"] == 0 and hyp["right_projective"]
    assert built == []
    # the right simples of kA3 resolve to their first zero kernel, which
    # is not built
    B = build_tensor(lambda_q(QQ, 3), Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)])).B
    got = _right_simple_resolutions(B)
    assert sorted(length for _S, _res, length in got) == [0, 1, 1]
    assert built == [step for _S, res, length in got for step in res.steps[:length]]
    for _S, res, length in got:
        assert [step.kernel_dim for step in res.steps] == [step.kernel.dim for step in res.steps]
        assert res.steps[length].kernel.dim == 0


def test_first_read_of_a_kernel_from_two_threads(monkeypatch):
    res = resolution(_x_family(Fraction(3, 2)).flatten(), length=2)
    built = _spy_kernel_builds(monkeypatch, pause=0.05)
    step = res.steps[2]
    barrier = threading.Barrier(2, timeout=30)
    got = [None, None]

    def read(k):
        barrier.wait()
        got[k] = res.syzygy(3) if k else step.kernel

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert built == [step]
    assert got[0] is got[1] is step.kernel is step.kernel_incl.source
    assert got[0].dim == step.kernel_dim
