import random
from fractions import Fraction

import pytest

from monomod.algebra import regular_modules
from monomod.errors import ValidationError
from monomod.gallery import lambda_q
from monomod.homology import ext_dims, is_semi_gp, resolution
from monomod.linalg import QQ, Matrix
from monomod.modules import (
    Bimodule,
    ModuleMap,
    Verdict,
    hom_space,
    is_isomorphic,
    k_dual,
    simples_and_projectives,
    submodule_generated,
    tensor_over,
    zero_module,
)
from monomod.quiver import (
    Quiver,
    QuiverRep,
    build_tensor,
    dual_regular_outer,
    gathered_arrow_kernels,
    mon_membership,
    monic_check,
    monic_check_perp_form,
    module_to_rep,
    outer_tensor,
    path_algebra,
    rep_to_module,
    simple_slices,
)
from monomod.sampling import random_module, random_submodule
from monomod.triangular import t2_algebra


A2 = Quiver([1, 2], [("g", 2, 1)])
A3 = Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)])


def test_quiver_validation():
    with pytest.raises(ValidationError):
        Quiver([1], [("a", 1, 1)])  # loop = cycle
    with pytest.raises(ValidationError):
        Quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])  # 2-cycle
    with pytest.raises(ValidationError):
        Quiver([1, 2], [("a", 2, 1)], relations=[("a",)])  # too short
    with pytest.raises(ValidationError):
        Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("b", "a")])


def test_path_counts(trivial_k):
    B = path_algebra(QQ, A3)
    assert B.dim == 6  # e1,e2,e3,g1,g2,g1g2
    T = build_tensor(trivial_k, A3)
    assert T.flat.dim == 6


def test_tensor_dims(lambda2, trivial_k):
    assert build_tensor(lambda2, A2).flat.dim == 18
    assert build_tensor(lambda2, A3).flat.dim == 36


def test_tensor_A2_is_t2(lambda2):
    # explicit algebra isomorphism A (x) kA2 -> T2(A):
    # a (x) e1 -> (a,0,0), a (x) g -> (0,a,0), a (x) e2 -> (0,0,a)
    T = build_tensor(lambda2, A2)
    T2 = t2_algebra(lambda2)
    nA = lambda2.dim
    pidx = T.B._path_index
    perm = {}
    for i in range(nA):
        perm[T.index(i, pidx[(1, ())])] = i               # A block
        perm[T.index(i, pidx[(2, ("g",))])] = nA + i      # M block
        perm[T.index(i, pidx[(2, ())])] = 2 * nA + i      # B block
    dim = T.flat.dim
    field = QQ

    def push(vec):
        out = [field.zero] * dim
        for i, c in enumerate(vec):
            out[perm[i]] = c
        return out

    for i in range(dim):
        for j in range(dim):
            ei = [field.one if k == i else field.zero for k in range(dim)]
            ej = [field.one if k == j else field.zero for k in range(dim)]
            lhs = push(T.flat.product_vectors(ei, ej))
            rhs = T2.flat.product_vectors(push(ei), push(ej))
            assert lhs == rhs
    assert push(list(T.flat.unit)) == list(T2.flat.unit)


def _random_rep(T, rng, max_dim=3):
    q = T.quiver
    mods = {v: random_module(T.A, rng, max_dim=max_dim) for v in q.vertices}
    maps = {}
    for n, s, t in q.arrows:
        from monomod.sampling import random_map

        maps[n] = random_map(rng, mods[s], mods[t])
    try:
        return QuiverRep(T, mods, maps)
    except ValidationError:
        return None  # relation violated; caller retries


def test_rep_roundtrip_random(kx2, rng):
    T = build_tensor(kx2, A3)
    done = 0
    while done < 100:
        rep = _random_rep(T, rng)
        if rep is None:
            continue
        flat = rep_to_module(rep)
        back = module_to_rep(T, flat)
        assert rep_to_module(back).actions == flat.actions
        for v in T.quiver.vertices:
            assert back.vertex_modules[v].dim == rep.vertex_modules[v].dim
        done += 1


def test_projective_rep_roundtrip(kx2):
    T = build_tensor(kx2, A2)
    reg = regular_modules(T.flat)[0]
    rep = module_to_rep(T, reg)
    flat2 = rep_to_module(rep)
    # vertex-grouped coordinates: isomorphic to the original, and exactly
    # stable under a second round trip
    assert is_isomorphic(flat2, reg, seed=2).status == Verdict.HOLDS
    assert rep_to_module(module_to_rep(T, flat2)).actions == flat2.actions
    v = monic_check(rep, "combinatorial")
    assert v.status == Verdict.HOLDS


def test_tensor_view_matches_triangular_view(kx2, rng):
    # a T2 triple and its tensor-algebra incarnation have equal flat modules
    # after transporting along the explicit algebra isomorphism
    from monomod.sampling import random_t2_triple

    T = build_tensor(kx2, A2)
    T2 = t2_algebra(kx2)
    nA = kx2.dim
    pidx = T.B._path_index
    perm = {}
    for i in range(nA):
        perm[T.index(i, pidx[(1, ())])] = i
        perm[T.index(i, pidx[(2, ("g",))])] = nA + i
        perm[T.index(i, pidx[(2, ())])] = 2 * nA + i
    for _ in range(5):
        t = random_t2_triple(T2, rng, max_dim=3)
        rep = QuiverRep(
            T,
            {1: t.X, 2: t.Y},
            {"g": t.phibar()},
        )
        flat_tensor = rep_to_module(rep)
        flat_tri = t.flatten()
        for i in range(T.flat.dim):
            assert flat_tensor.actions[i] == flat_tri.actions[perm[i]]


def test_torsionless_submodules_monic(kx2, rng):
    # submodules of projectives are monic (combinatorially, exactly)
    T = build_tensor(kx2, A3)
    regT = regular_modules(T.flat)[0]
    for _ in range(10):
        sub, _incl = random_submodule(regT, rng)
        rep = module_to_rep(T, sub)
        assert monic_check(rep, "combinatorial").status == Verdict.HOLDS


def test_zero_arrow_not_monic(kx2):
    T = build_tensor(kx2, A2)
    reg = regular_modules(kx2)[0]
    rep = QuiverRep(
        T, {1: reg, 2: reg}, {"g": ModuleMap.zero(reg, reg)}
    )
    v = monic_check(rep, "combinatorial")
    assert v.status == Verdict.FAILS
    assert v.witness["vertex"] == 1
    assert gathered_arrow_kernels(rep)[1] == reg.dim


def test_monic_checks_read_flat_modules_as_reps(kx2):
    # a flat module over a tensor algebra built here is checked as its rep
    T = build_tensor(kx2, A2)
    reg = regular_modules(kx2)[0]
    reps = [QuiverRep(T, {1: reg, 2: reg}, {"g": ModuleMap.zero(reg, reg)}),
            QuiverRep(T, {1: reg, 2: reg}, {"g": ModuleMap.identity(reg)})]
    statuses = []
    for rep in reps:
        flat = rep_to_module(rep)
        for mode in ("combinatorial", "homological"):
            got = monic_check(flat, mode, bound=3).describe()
            assert got == monic_check(rep, mode, bound=3).describe()
            statuses.append(got["status"])
        got = monic_check_perp_form(flat, bound=3).describe()
        assert got == monic_check_perp_form(rep, bound=3).describe()
    assert statuses == [Verdict.FAILS, Verdict.FAILS, Verdict.HOLDS, Verdict.UNKNOWN]
    # a module over any other algebra has no representation to read
    for check in (monic_check, monic_check_perp_form):
        with pytest.raises(ValidationError, match="not over a tensor algebra"):
            check(reg)


def test_modes_agree_relation_free(kx2, rng):
    T = build_tensor(kx2, A2)
    done = 0
    while done < 8:
        rep = _random_rep(T, rng)
        if rep is None:
            continue
        comb = monic_check(rep, "combinatorial")
        homv = monic_check(rep, "homological", bound=5)
        if homv.status == Verdict.FAILS:
            assert comb.status == Verdict.FAILS
            assert comb.witness["vertex"] == homv.witness["vertex"]
        done += 1
    # and on the combinatorial side the gathered-map kernels decide
    done = 0
    while done < 8:
        rep = _random_rep(T, rng)
        if rep is None:
            continue
        kers = gathered_arrow_kernels(rep)
        comb = monic_check(rep, "combinatorial")
        assert (comb.status == Verdict.HOLDS) == all(k == 0 for k in kers.values())
        done += 1


def test_outer_tensor_basics(kx2, rng):
    T = build_tensor(kx2, A2)
    DAB = dual_regular_outer(T)
    assert DAB.dim == kx2.dim * T.B.dim
    for _ in range(4):
        M = random_module(kx2, rng, max_dim=3, allow_zero=False)
        Bleft = regular_modules(T.B)[0]
        X = outer_tensor(T, M, Bleft)
        assert X.dim == M.dim * T.B.dim
        rep = module_to_rep(T, X)
        assert monic_check(rep, "combinatorial").status == Verdict.HOLDS


def test_mon_membership_outer_tensor(kx2, rng):
    # membership of M (x) B over C equals the C-predicate on M itself
    T = build_tensor(kx2, A2)
    Bleft = regular_modules(T.B)[0]

    def projectivity_predicate(Z):
        res = resolution(Z, True, 0)
        return (
            Verdict.holds("projective")
            if res.steps[0].kernel.dim == 0
            else Verdict.fails({"sub": "not projective"})
        )

    for _ in range(6):
        M = random_module(kx2, rng, max_dim=3, allow_zero=False)
        X = outer_tensor(T, M, Bleft)
        rep = module_to_rep(T, X)
        v = mon_membership(rep, projectivity_predicate, bound=4)
        assert (v.status == Verdict.HOLDS) == (
            projectivity_predicate(M).status == Verdict.HOLDS
        )


def test_projective_membership(kx2):
    T = build_tensor(kx2, A2)
    regT = regular_modules(T.flat)[0]
    rep = module_to_rep(T, regT)

    def projectivity_predicate(Z):
        res = resolution(Z, True, 0)
        return (
            Verdict.holds("projective")
            if res.steps[0].kernel.dim == 0
            else Verdict.fails({"sub": "not projective"})
        )

    assert mon_membership(rep, projectivity_predicate).status == Verdict.HOLDS


A3REL = Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])


def _tensor_form_slices(rep):
    """(A (x) S'_v) (x)_Lambda X per vertex, built through the flat module:
    the reference that simple_slices must agree with."""
    T = rep.parent
    flat = rep_to_module(rep)
    Aright = regular_modules(T.A)[1]
    right_simples = simples_and_projectives(T.B, side="right")["simples"]
    out = {}
    for S, v in zip(right_simples, T.quiver.vertices):
        u = outer_tensor(T, Aright, S)
        left = [T.A.left_matrix(i).kronecker(Matrix.identity(T.A.field, S.dim))
                for i in range(T.A.dim)]
        bim = Bimodule(T.A, T.flat, u.dim, left, u.actions, label=f"A(x)S'({v})")
        out[v] = tensor_over(bim, flat).module
    return out


@pytest.mark.parametrize("quiver", [A2, A3, A3REL], ids=["kx2-A2", "kx2-A3", "kx2-A3rel"])
def test_simple_slices_match_tensor_form(kx2, rng, quiver):
    # S'_v (x)_B X as the cokernel of the arrows into v is the tensor-form
    # slice, vertex by vertex: random reps (monic or not) and submodules of
    # the regular module, which satisfy the relations by construction
    T = build_tensor(kx2, quiver)
    regT = regular_modules(T.flat)[0]
    reps = [module_to_rep(T, random_submodule(regT, rng)[0]) for _ in range(3)]
    while len(reps) < 6:
        rep = _random_rep(T, rng)
        if rep is not None:
            reps.append(rep)
    for rep in reps:
        slices = simple_slices(rep)
        reference = _tensor_form_slices(rep)
        for v in T.quiver.vertices:
            assert slices[v].dim == reference[v].dim
            if slices[v].dim:
                assert is_isomorphic(slices[v], reference[v], seed=3).status == Verdict.HOLDS


def test_mon_membership_builds_no_flat_module(kx2, lambda2, monkeypatch):
    # membership reads the slices off the representation: no flat module and
    # no tensor product over Lambda, so it also runs over Lambda(2) (x) kA3,
    # whose flat modules cannot be validated under the default cap
    from monomod import modules, quiver

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(quiver, "rep_to_module", spy("rep_to_module", quiver.rep_to_module))
    tensor_spy = spy("tensor_over", modules.tensor_over)
    monkeypatch.setattr(modules, "tensor_over", tensor_spy)
    monkeypatch.setattr(quiver, "tensor_over", tensor_spy, raising=False)

    def free(Z):
        top = Z.dim - modules.radical_image_dim(Z)
        if Z.dim == Z.algebra.dim * top:
            return Verdict.holds({"free_rank": top})
        return Verdict.fails({"dim": Z.dim, "top": top})

    for A in (kx2, lambda2):
        T = build_tensor(A, A3)
        reg = regular_modules(A)[0]
        one = ModuleMap.identity(reg)
        rep = QuiverRep(T, {1: reg, 2: reg, 3: reg}, {"g1": one, "g2": one})
        assert mon_membership(rep, free, bound=4).status == Verdict.HOLDS
        # the arrows into 1 and 2 are onto, so only vertex 3 has a slice
        assert [Z.dim for Z in simple_slices(rep).values()] == [0, 0, A.dim]
    assert calls == []
    reg = regular_modules(kx2)[0]
    nonmonic = QuiverRep(build_tensor(kx2, A2), {1: reg, 2: reg}, {"g": ModuleMap.zero(reg, reg)})
    with pytest.raises(ValidationError, match="needs a monic representation"):
        mon_membership(nonmonic, free)


def test_cartan_eilenberg_samples(kx2, rng):
    # dim Ext^i over the tensor algebra of an outer tensor against the
    # regular module is the convolution of the one-sided Ext dimensions
    T = build_tensor(kx2, A2)
    regL = regular_modules(T.flat)[0]
    regA = regular_modules(kx2)[0]
    regB = regular_modules(T.B)[0]
    bound = 3
    for _ in range(4):
        X = random_module(kx2, rng, max_dim=3, allow_zero=False)
        P = random_module(T.B, rng, max_dim=3, allow_zero=False)
        XP = outer_tensor(T, X, P)
        lhs = ext_dims(XP, regL, bound).dims
        ea = ext_dims(X, regA, bound).dims
        eb = ext_dims(P, regB, bound).dims
        for i in range(bound + 1):
            conv = sum(ea[p] * eb[i - p] for p in range(i + 1))
            assert lhs[i] == conv


def test_gp_description_sampled(kx2, rng):
    # Gorenstein-projectivity over the tensor algebra = monic with
    # Gorenstein-projective slices (definite verdicts only)
    from monomod.duality import classify

    T = build_tensor(kx2, A2)

    def gp_predicate(Z):
        return classify(Z, bound=4, seed=0).gp

    done = 0
    seen_pairs = 0
    while done < 10:
        rep = _random_rep(T, rng)
        if rep is None:
            continue
        done += 1
        flat = rep_to_module(rep)
        flat_gp = classify(flat, bound=4, seed=0).gp
        comb = monic_check(rep, "combinatorial")
        if comb.status == Verdict.FAILS:
            if flat_gp.definite:
                assert flat_gp.status == Verdict.FAILS
                seen_pairs += 1
            continue
        mv = mon_membership(rep, gp_predicate, bound=4)
        if flat_gp.definite and mv.definite:
            assert flat_gp.status == mv.status
            seen_pairs += 1
    assert seen_pairs >= 3


def test_perp_form_agrees_with_other_modes(kx2, rng):
    # the Ext-against-D(A)(x)B form: a witness refutes monicity, and exact
    # monic modules are clean at every bound
    T = build_tensor(kx2, A2)
    done = 0
    saw_fail = 0
    while done < 10:
        rep = _random_rep(T, rng)
        if rep is None:
            continue
        done += 1
        comb = monic_check(rep, "combinatorial")
        perp = monic_check_perp_form(rep, bound=5)
        if perp.status == Verdict.FAILS:
            saw_fail += 1
            assert comb.status == Verdict.FAILS
        if comb.status == Verdict.HOLDS:
            assert perp.status != Verdict.FAILS
        # and against the Tor form on definite outcomes
        tor = monic_check(rep, "homological", bound=5)
        if tor.status == Verdict.FAILS:
            assert comb.status == Verdict.FAILS
    assert saw_fail >= 1


def test_perp_form_on_relation_instance(trivial_k):
    Q = Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])
    T = build_tensor(trivial_k, Q)
    kmod = regular_modules(trivial_k)[0]
    z = zero_module(trivial_k)
    rep = QuiverRep(T, {1: z, 2: kmod, 3: z},
                    {"a": ModuleMap.zero(z, kmod), "b": ModuleMap.zero(kmod, z)})
    v = monic_check_perp_form(rep, bound=6)
    assert v.status == Verdict.FAILS
