"""The three workloads: their fixed algebras, their seeded inputs, their ops
and the checks each op's result must pass.

A workload runs in rounds.  Every round of a workload has the same op kinds
in the same order; only the seeded inputs differ.  `setup()` imports monomod
and builds the fixed algebras (timed as setup_s); `make_round()` builds one
round's inputs outside any op's timed span and returns its ops.

monomod is imported inside the functions, so that setup() is what pays for
the import.
"""

import contextlib
import io as _stdio
import os
import random
from fractions import Fraction

import checks
from checks import require


class Op:
    """One unit of user-visible work and the check of its result.

    cap_fault marks an op that fails today because Algebra.generators()
    builds a matrix over the default dimension cap (see README.md); such an
    op is expected to raise DimensionCapExceeded.
    """

    __slots__ = ("kind", "run", "check", "cap_fault")

    def __init__(self, kind, run, check, cap_fault=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.cap_fault = cap_fault


def round_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def _kx2(field):
    """k[x]/(x^2), the smallest local algebra with a radical."""
    from monomod import AlgebraPresentation, validate_algebra

    pres = AlgebraPresentation(
        field, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], idempotents=[[1, 0]],
    )
    return validate_algebra(pres, label="k[x]/(x^2)")


def _seeded_c(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _own_span_dim(A, vectors):
    return checks.rank(A.field, [list(v) for v in vectors])


# ---------------------------------------------------------------------------
# x-family-sgp: the paper's headline computation, one scenario per op


class XFamily:
    name = "x-family-sgp"
    q = 2
    bound = 6

    def setup(self):
        import monomod  # noqa: F401  (the import is part of set-up)
        from monomod import QQ, t2_algebra
        from monomod.gallery import lambda_q

        A = lambda_q(QQ, self.q)
        return {"algebra": A, "parent": t2_algebra(A)}

    def make_round(self, ctx, rng, index):
        from monomod.gallery import run_scenario

        c = _seeded_c(rng)
        seed = rng.randint(0, 999)
        params = {"c": c, "q": Fraction(self.q), "bound": self.bound, "seed": seed}

        def run():
            return run_scenario("x-family", params).describe()

        return [Op("x-family", run, lambda d: check_x_family(c, self.q, d))]


def check_x_family(c, q, desc):
    """The scenario's ten claims, re-derived where the paper states a fact."""
    from monomod import QQ, ModuleMap, regular_modules, t2_dual_bundle, t2_triple
    from monomod.gallery import ideal_A_w, ideal_A_w_A, ideal_w_A, lambda_element
    from monomod.gallery import standard_family
    from monomod.triangular import RightTriple

    claims = {cl["anchor"]: cl for cl in desc["claims"]}
    require(len(desc["claims"]) == 10 and len(claims) == 10,
            f"x-family has {len(desc['claims'])} claims, expected 10")
    bad = [a for a, cl in claims.items() if cl["status"] == "fail"]
    require(not bad, f"x-family claims failed: {bad}")

    fam = standard_family(QQ, Fraction(q), c)
    A, parent, Xc = fam["algebra"], fam["parent"], fam["X_c"]
    field = A.field
    require(Xc.X.dim + Xc.Y.dim == 9, "X(c) does not have flat dimension 9")
    canon = claims["x-family/canonical-map"]["data"]
    require(canon["kernel_dim"] == 1 and canon["cokernel_dim"] == 1,
            f"canonical map of X(c): kernel {canon['kernel_dim']}, "
            f"cokernel {canon['cokernel_dim']}, expected 1 and 1")

    # dim A(x-y) = 2 and dim A(x-y)A = 3, from the structure constants
    w = lambda_element(A, {"x": 1, "y": -1})
    basis = [[field.one if k == i else field.zero for k in range(A.dim)] for i in range(A.dim)]
    aw = [A.product_vectors(b, w) for b in basis]
    awa = [A.product_vectors(v, b) for v in aw for b in basis]
    ideals = claims["x-family/ideal-decomposition"]["data"]
    require(_own_span_dim(A, aw) == 2 == ideals["dim_Aw"], "dim A(x-y) is not 2")
    require(_own_span_dim(A, awa) == 3 == ideals["dim_AwA"], "dim A(x-y)A is not 3")

    # the Ext witness of X(c)** through the Ext-Tor adjunction, and its resolution
    bundle = t2_dual_bundle(Xc)
    dd = bundle.double_dual_triple.flatten()
    verdict = claims["x-family/double-dual-witness"]["data"]["verdict"]
    require(verdict["status"] == "fails", "X(c)** shows no Ext witness")
    checks.check_ext_witness(dd, verdict["witness"])
    checks.check_resolution(dd, 2)

    # isomorphism certificates against the closed forms of X(c)* and X(c)**
    regL, regR = regular_modules(A)
    U, incl_u = ideal_w_A(A, lambda_element(A, {"x": 1, "y": -field.inv(field.of(q))}))
    target_dual = RightTriple(parent, U, regR, ModuleMap(U, regR, incl_u.matrix)).flatten()
    AwA, incl_awa = ideal_A_w_A(A, w)
    target_dd = t2_triple(parent, regL, AwA, ModuleMap(AwA, regL, incl_awa.matrix)).flatten()
    pairs = {
        "x-family/dual-form": (bundle.dual_triple.flatten(), target_dual),
        "x-family/double-dual-form": (dd, target_dd),
    }
    for anchor, (source, target) in pairs.items():
        v = claims[anchor]["data"]["verdict"]
        if v["status"] == "holds":
            checks.check_iso_certificate(
                checks.parse_entries(field, v["certificate"]), source, target)
    Aw, _ = ideal_A_w(A, w)
    require(Aw.dim == 2, "the left ideal A(x-y) is not 2-dimensional")
    checks.check_hom_dims(fam["M"], regL)


# ---------------------------------------------------------------------------
# classify-sampled: many small modules, Lambda(q) local modules, light scenarios


class ClassifySampled:
    name = "classify-sampled"
    bound = 4
    scenarios = ("dual-iso-family", "approximation-pipeline", "t2-lift-sampled",
                 "loop-arrow-sgp")
    # which indecomposable projectives each sampled module is a quotient of;
    # fixed per round so that every round does comparable work
    shapes = (("kx2", (0,)), ("kx2", (0, 0)), ("loop-arrow", (1,)))

    def setup(self):
        import monomod  # noqa: F401
        from monomod import QQ, t2_algebra
        from monomod.gallery import lambda_q, lsgp_algebra

        kx2 = _kx2(QQ)
        la = lsgp_algebra(QQ)
        return {
            "samples": {"kx2": (kx2, t2_algebra(kx2)), "loop-arrow": (la, t2_algebra(la))},
            "lambda": lambda_q(QQ, 2),
        }

    def make_round(self, ctx, rng, index):
        ops = [self._sampled_module_op(ctx, name, picks, rng) for name, picks in self.shapes]
        ops.append(self._local_op(ctx, rng, prime=False))
        ops.append(self._local_op(ctx, rng, prime=True))
        for scenario in self.scenarios:
            ops.append(self._scenario_op(ctx, scenario, rng))
        return ops

    # -- one random module: classify, approximate, lift, isomorphism ----------

    def _sampled_module_op(self, ctx, name, picks, rng):
        from monomod import (
            a_dual,
            approximation_triple,
            classify,
            is_isomorphic,
            regular_modules,
        )
        from monomod.triangular import classify_triple_assert

        A, parent = ctx["samples"][name]
        M = random_quotient(ctx, A, rng, picks)
        N = base_change(M, rng)
        seed = rng.randint(0, 10**6)
        bound = self.bound

        def run():
            rep = classify(M, bound=bound, seed=seed)
            triple = approximation_triple(M, parent=parent)
            classify_triple_assert(triple, bound=bound, seed=seed)
            return rep, triple, is_isomorphic(M, N, seed=seed)

        def check(result):
            rep, triple, iso = result
            checks.check_semi_gp(M, rep.semi_gp)
            checks.check_semi_gp(a_dual(M).dual, rep.dual_semi_gp)
            injective = checks.rank(A.field, checks.rows_of(triple.phibar().matrix)) == M.dim
            require(injective == rep.torsionless,
                    "approximation map injective but module not torsionless, or back")
            require(iso.status != "fails", f"a base change refuted as non-isomorphic: {iso}")
            checks.check_verdict_certificate(iso)
            checks.check_hom_dims(M, regular_modules(A)[0])

        return Op(f"classify/{name}", run, check)

    # -- one local module M(a,b,c) or M'(a,b,c) of Lambda(q) ----------------

    def _local_op(self, ctx, rng, prime):
        from monomod import a_dual, classify, regular_modules
        from monomod.gallery import generic_M, generic_M_prime

        L = ctx["lambda"]
        # the paper's local modules M(1, -q, c) and M'(1, -q^-1, c); c = 0 is
        # the family's special member and costs from half to three times more
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        q = L.q_value
        abc = (1, -1 / q, c) if prime else (1, -q, c)
        seed = rng.randint(0, 10**6)
        build = generic_M_prime if prime else generic_M
        bound = self.bound

        def run():
            M = build(L, *abc)
            return M, classify(M, bound=bound, seed=seed)

        def check(result):
            M, rep = result
            require(M.dim == 3, f"local module {M.label} has dim {M.dim}, expected 3")
            checks.check_semi_gp(M, rep.semi_gp)
            checks.check_semi_gp(a_dual(M).dual, rep.dual_semi_gp)
            reg = regular_modules(L)[1 if prime else 0]
            checks.check_hom_dims(M, reg)

        return Op("local/M'" if prime else "local/M", run, check)

    # -- one light scenario through the CLI, its modules through JSON files --

    def _scenario_op(self, ctx, scenario, rng):
        from monomod import QQ
        from monomod import cli
        from monomod import io as mio
        from monomod.gallery import lsgp_example, module_M1qc

        seed = rng.randint(0, 10**6)
        argv = ["verify", scenario, "--seed", str(seed)]
        if scenario in ("dual-iso-family", "approximation-pipeline"):
            c = _seeded_c(rng)
            argv.append(f"--c={c}")
            A = ctx["lambda"]
            module = module_M1qc(A, c)
            alg_name = "lambda_q2"
        elif scenario == "t2-lift-sampled":
            alg_name = rng.choice(("kx2", "loop-arrow"))
            argv += ["--algebra", alg_name, "--samples", "2"]
            A = ctx["samples"][alg_name][0]
            module = random_quotient(ctx, A, rng)
        else:
            ex = lsgp_example(QQ)
            A = ex["algebra"]
            module = ex["modules"][rng.randrange(len(ex["modules"]))]
            alg_name = "loop-arrow"
        workdir = ctx["workdir"]
        alg_file = os.path.join(workdir, f"{alg_name}.json")
        mod_file = os.path.join(workdir, f"{scenario}-module.json")

        def call_cli():
            out = _stdio.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            return rc, out.getvalue()

        def run():
            mio.dump_algebra(A, alg_file)
            mio.dump_module(module, mod_file, os.path.basename(alg_file))
            loaded = mio.load_module(mod_file)
            return loaded, call_cli()

        def check(result):
            loaded, first = result
            require(loaded.dim == module.dim and loaded.side == module.side,
                    "module changed shape through its JSON file")
            for i in range(A.dim):
                require(checks.rows_of(loaded.actions[i]) == checks.rows_of(module.actions[i]),
                        f"action {i} changed through the JSON file")
            checks.check_cli_repeat(first, call_cli())

        return Op(f"cli/{scenario}", run, check)


def random_quotient(ctx, A, rng, picks=None):
    """A seeded quotient of a sum of indecomposable projectives (the given
    ones, or one or two seeded ones) by the submodule that one vector of its
    radical generates, so never zero."""
    from monomod import direct_sum, simples_and_projectives
    from monomod import submodule_generated
    from monomod.modules import quotient_module

    cache = ctx.setdefault("projectives", {})
    projs = cache.get(id(A))
    if projs is None:
        projs = [P for P, _e in simples_and_projectives(A)["projectives"]]
        cache[id(A)] = projs
    if picks is None:
        picks = [rng.randrange(len(projs)) for _ in range(rng.randint(1, 2))]
    summands = [projs[i] for i in picks]
    P = summands[0] if len(summands) == 1 else direct_sum(summands)[0]
    rad_cols = [col for jv in A.radical_basis()
                for col in P.action_of_vector(jv).columns() if any(col)]
    if not rad_cols:
        return P
    field = A.field
    v = [field.zero] * P.dim
    for col in rng.sample(rad_cols, min(2, len(rad_cols))):
        k = field.of(rng.choice((-2, -1, 1, 2)))
        v = [field.add(x, field.mul(k, y)) for x, y in zip(v, col)]
    _sub, incl = submodule_generated(P, [v])
    Q, _proj, _sec = quotient_module(P, incl.matrix, label="sample")
    return Q


def base_change(M, rng):
    """The same module in a seeded random basis: actions P^-1 rho P."""
    from monomod import Matrix, validate_module

    field, d = M.field, M.dim
    while True:
        rows = [[field.of(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if checks.rank(field, rows) == d:
            break
    P = Matrix(field, rows, d)
    Pinv = P.inverse()
    acts = [Pinv * (a * P) for a in M.actions]
    return validate_module(acts, M.side, M.algebra, label="base-changed")


# ---------------------------------------------------------------------------
# monic-quivers-fp: monic checks and membership over tensor algebras over F_p


def _tensor_radical(T):
    """Spanning vectors of J(A (x) kQ/I) = J_A (x) kQ/I + A (x) J_kQ/I.

    Built from the factors: the flat algebra's own radical_basis() exceeds
    the dimension cap on Lambda(q) (x) kA3 (see README.md)."""
    field = T.flat.field
    out = [T.embed(list(rv), j) for rv in T.A.radical_basis() for j in range(T.npaths)]
    for j, (_src, arrows) in enumerate(T.paths):
        if arrows:
            for i in range(T.A.dim):
                out.append(T.embed([field.one if k == i else field.zero
                                    for k in range(T.A.dim)], j))
    return out


class MonicQuivers:
    name = "monic-quivers-fp"
    p = 5
    # Tor bound of the homological check; resolutions over Lambda(q) grow fast
    bounds = {"kx2": 4, "lambda": 1, "k": 4}

    def setup(self):
        import monomod  # noqa: F401
        from monomod import GF, Quiver, build_tensor
        from monomod.gallery import lambda_q

        F = GF(self.p)
        kx2 = _kx2(F)
        L = lambda_q(F, 2)
        A2 = Quiver([1, 2], [("g", 2, 1)])
        A3 = Quiver([1, 2, 3], [("g1", 2, 1), ("g2", 3, 2)])
        A3r = Quiver([1, 2, 3], [("a", 3, 2), ("b", 2, 1)], relations=[("a", "b")])
        pk = monomod.AlgebraPresentation(F, 1, ["1"], [1], [(0, 0, 0, 1)], idempotents=[[1]])
        k = monomod.validate_algebra(pk, label="k")
        return {
            "field": F,
            "tensors": [
                ("kx2-A2", build_tensor(kx2, A2)),
                ("kx2-A3", build_tensor(kx2, A3)),
                ("kx2-A3rel", build_tensor(kx2, A3r)),
                ("lambda-A2", build_tensor(L, A2)),
                ("lambda-A3", build_tensor(L, A3)),
            ],
            "k-A3rel": build_tensor(k, A3r),
            "fixed": {},
        }

    def make_round(self, ctx, rng, index):
        ops = []
        for name, T in ctx["tensors"]:
            # submodules of projectives are monic when Q has no relations;
            # with ab = 0 the simple S(2) is itself a submodule of P(3)
            monic = not T.quiver.relations
            sub = self._rep(T, rng, submodule=True)
            quot = self._rep(T, rng, submodule=False)
            if name == "lambda-A3":
                # the ops that need the flat module run on fixed inputs: they
                # fail at every seed through the generators() cap fault
                fsub, fquot = self._fixed_reps(ctx, T)
                ops += [
                    self._combinatorial(name, "sub", sub, monic),
                    self._homological(name, "sub", fsub, monic, cap_fault=True),
                    self._membership(name, fsub, cap_fault=True),
                    self._round_trip(name, "sub", fsub, cap_fault=True),
                    self._combinatorial(name, "quot", quot, False),
                    self._homological(name, "quot", fquot, False, cap_fault=True),
                    self._round_trip(name, "quot", fquot, cap_fault=True),
                ]
                continue
            # the Tor check over Lambda(q) (x) kA2 is left out: its cost ranges
            # from 0.02 s to 5.5 s over seeded reps, and from bound 3 on it
            # exceeds the dimension cap on some of them (see README.md)
            tor = name != "lambda-A2"
            seen_sub, seen_quot = {}, {}
            ops.append(self._combinatorial(name, "sub", sub, monic, seen=seen_sub))
            if tor:
                ops.append(self._homological(name, "sub", sub, monic, seen=seen_sub))
            if monic:
                ops.append(self._membership(name, sub))
            ops += [
                self._round_trip(name, "sub", sub),
                self._combinatorial(name, "quot", quot, False, seen=seen_quot),
            ]
            if tor:
                ops.append(self._homological(name, "quot", quot, False, seen=seen_quot))
            ops.append(self._round_trip(name, "quot", quot))
        s2 = self._simple_s2(ctx)
        seen = {}
        ops += [
            self._combinatorial("k-A3rel", "S(2)", s2, False, seen=seen, must_fail=True),
            self._homological("k-A3rel", "S(2)", s2, False, seen=seen, must_fail=True),
        ]
        return ops

    # -- inputs -----------------------------------------------------------------

    def _random_vector(self, T, rng, within_radical):
        F = T.flat.field
        if within_radical:
            rad = _tensor_radical(T)
            v = [0] * T.flat.dim
            for row in rng.sample(rad, min(2, len(rad))):
                k = rng.randint(1, self.p - 1)
                v = [(x + k * y) % self.p for x, y in zip(v, row)]
            return v
        return [F.of(rng.randint(-2, 2)) if rng.random() < 0.3 else 0
                for _ in range(T.flat.dim)]

    def _rep(self, T, rng, submodule):
        """The submodule of the regular module one seeded vector generates, or
        the quotient by the submodule of one seeded radical vector, as a
        representation."""
        from monomod import module_to_rep, regular_modules
        from monomod import submodule_generated
        from monomod.modules import quotient_module

        reg = regular_modules(T.flat)[0]
        if submodule:
            v = self._random_vector(T, rng, False)
            while not any(v):
                v = self._random_vector(T, rng, False)
            M, _ = submodule_generated(reg, [v])
        else:
            _sub, incl = submodule_generated(reg, [self._random_vector(T, rng, True)])
            M, _proj, _sec = quotient_module(reg, incl.matrix)
        return module_to_rep(T, M)

    def _fixed_reps(self, ctx, T):
        from monomod import module_to_rep, regular_modules
        from monomod import submodule_generated
        from monomod.modules import quotient_module

        got = ctx["fixed"].get("lambda-A3")
        if got is None:
            reg = regular_modules(T.flat)[0]
            sub, _ = submodule_generated(reg, [list(T.vertex_idempotent(1))])
            _s, incl = submodule_generated(reg, [_tensor_radical(T)[0]])
            quot, _p, _sec = quotient_module(reg, incl.matrix)
            got = (module_to_rep(T, sub), module_to_rep(T, quot))
            ctx["fixed"]["lambda-A3"] = got
        return got

    def _simple_s2(self, ctx):
        """The relation-bound simple S(2) of demos/05: k at the middle vertex."""
        from monomod import ModuleMap, QuiverRep, regular_modules, zero_module

        got = ctx["fixed"].get("S(2)")
        if got is None:
            T = ctx["k-A3rel"]
            kmod = regular_modules(T.A)[0]
            z = zero_module(T.A)
            got = QuiverRep(T, {1: z, 2: kmod, 3: z},
                            {"a": ModuleMap.zero(z, kmod), "b": ModuleMap.zero(kmod, z)})
            ctx["fixed"]["S(2)"] = got
        return got

    # -- ops ------------------------------------------------------------------

    def _combinatorial(self, name, what, rep, monic, seen=None, must_fail=False):
        from monomod import monic_check

        def run():
            return monic_check(rep, "combinatorial")

        def check(v):
            if monic:
                require(v.status == "holds",
                        f"a submodule of a projective is not monic: {v.describe()}")
            require(v.status in ("holds", "fails"), f"combinatorial check gave {v.status}")
            if must_fail:
                require(v.status == "fails", "S(2) passes the combinatorial monic check")
            if seen is not None:
                seen["combinatorial"] = v

        return Op(f"monic/{name}/{what}/combinatorial", run, check)

    def _homological(self, name, what, rep, monic, seen=None, cap_fault=False,
                     must_fail=False):
        from monomod import monic_check

        bound = self.bounds[name.split("-")[0]]

        def run():
            return monic_check(rep, "homological", bound=bound)

        def check(v):
            require(v.status in ("fails", "unknown"), f"homological check gave {v.status}")
            if monic:
                require(v.status != "fails",
                        f"homological check refutes a submodule of a projective: {v.describe()}")
            if must_fail:
                require(v.status == "fails", "S(2) passes the homological monic check")
            if seen is not None and v.status == "fails":
                comb = seen.get("combinatorial")
                require(comb is not None and comb.status == "fails",
                        "homological check refutes a rep the exact check calls monic")
                if must_fail:
                    require(comb.witness["vertex"] == v.witness["vertex"],
                            f"S(2) fails at vertex {comb.witness['vertex']} (combinatorial) "
                            f"and {v.witness['vertex']} (homological)")

        return Op(f"monic/{name}/{what}/homological", run, check, cap_fault)

    def _membership(self, name, rep, cap_fault=False):
        """mon(B, proj A): are the simple slices free A-modules?"""
        from monomod import Verdict, mon_membership

        A = rep.parent.A
        slices = []

        def free(Z):
            cols = [col for jv in A.radical_basis() for col in Z.action_of_vector(jv).columns()]
            top = Z.dim - (checks.rank(Z.field, cols) if cols else 0)
            slices.append((Z.dim, top))
            if Z.dim == A.dim * top:
                return Verdict.holds({"free_rank": top})
            return Verdict.fails({"dim": Z.dim, "top": top})

        def run():
            slices.clear()
            return mon_membership(rep, free, bound=4)

        def check(v):
            # each slice is X_v over the images of the arrows into v
            q = rep.parent.quiver
            expected = []
            for vert in q.vertices:
                incoming = [rep.arrow_maps[n].matrix for (n, _s, t) in q.arrows if t == vert]
                image = checks.columns_rank(rep.parent.flat.field, incoming) if incoming else 0
                expected.append(rep.vertex_modules[vert].dim - image)
            require([d for d, _t in slices] == expected,
                    f"slice dims {[d for d, _t in slices]}, arrow cokernels give {expected}")
            all_free = all(d == A.dim * t for d, t in slices)
            require(v.status == ("holds" if all_free else "fails"),
                    f"membership verdict {v.status} with slices {slices}")

        return Op(f"monic/{name}/sub/membership", run, check, cap_fault)

    def _round_trip(self, name, what, rep, cap_fault=False):
        from monomod import module_to_rep, rep_to_module

        T = rep.parent

        def run():
            flat = rep_to_module(rep)
            return flat, module_to_rep(T, flat)

        def check(result):
            flat, back = result
            q = T.quiver
            field = T.flat.field
            require(flat.dim == rep.flat_dim(), "flat module has the wrong dimension")
            for v in q.vertices:
                require(back.vertex_modules[v].dim == rep.vertex_modules[v].dim,
                        f"vertex {v} changed dimension through the round trip")
            for n, _s, _t in q.arrows:
                r1 = checks.rank(field, checks.rows_of(rep.arrow_maps[n].matrix))
                r2 = checks.rank(field, checks.rows_of(back.arrow_maps[n].matrix))
                require(r1 == r2, f"arrow {n} changed rank through the round trip")

        return Op(f"monic/{name}/{what}/round-trip", run, check, cap_fault)


WORKLOADS = {w.name: w for w in (XFamily(), ClassifySampled(), MonicQuivers())}
