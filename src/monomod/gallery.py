"""Hardcoded worked instances: the six-dimensional local algebra L(q) with
relations x^2, y^2, z^2, yz, xy+q.yx, xz-zx, zy-zx; its three-dimensional
local modules M(a,b,c) and M'(a,b,c); the approximation map f1; the X(c)
family over the 2x2 triangular extension; and the four-dimensional
one-loop-plus-arrow algebra whose only semi-Gorenstein-projectives are the
projectives.  Named scenarios bind computations to the expected facts.
"""

import random
from fractions import Fraction

from .algebra import AlgebraPresentation, regular_modules, validate_algebra
from .duality import a_dual, canonical_map, classify, dual_map
from .errors import ValidationError
from .homology import ext_dims, is_semi_gp
from .linalg import QQ, Eliminator, Field, Matrix, SpanAccumulator, basis_vector
from .memo import interned, memo
from .modules import (
    ModuleMap,
    Verdict,
    _json_safe,
    generated_span,
    is_isomorphic,
    quotient_module,
    submodule_generated,
    validate_module,
)
from .sampling import random_module
from .triangular import (
    RightTriple,
    approximation_triple,
    classify_triple_assert,
    is_monic_bimodule,
    t2_algebra,
    t2_dual_bundle,
    t2_triple,
)

# basis order of L(q): 1, x, y, z, yx, zx
_ONE, _X, _Y, _Z, _YX, _ZX = range(6)
LAMBDA_LABELS = ["1", "x", "y", "z", "yx", "zx"]


def lambda_q(field=QQ, q=Fraction(2)):
    """The local algebra with basis 1, x, y, z, yx, zx and the relations
    x^2 = y^2 = z^2 = yz = 0, xy = -q yx, xz = zx, zy = zx.

    q must be nonzero; a q of finite multiplicative order (over Q: q = 1 or
    q = -1; over F_p: always) is allowed but stamped with a warning flag,
    since the high-degree expectations downstream assume infinite order.

    Built once per process for each (field, field.of(q)), so 2,
    Fraction(2) and "2" give one algebra, as do two equal fields; the
    algebra is kept (monomod.memo.interned), checked and stamped, and
    everything memoized on it (its 2x2 extension, regular modules,
    radical) is built once with it.
    """
    return _lambda_q(field, field.of(q))


@interned
def _lambda_q(field, q):
    """Lambda(q) for q = field.of(q), checked and stamped before it is kept."""
    if not q:
        raise ValidationError("lambda_q needs q != 0")
    consts = []
    for j in range(6):
        consts.append((_ONE, j, j, field.one))
        if j != _ONE:
            consts.append((j, _ONE, j, field.one))
    consts.append((_X, _Y, _YX, field.neg(q)))
    consts.append((_Y, _X, _YX, field.one))
    consts.append((_X, _Z, _ZX, field.one))
    consts.append((_Z, _X, _ZX, field.one))
    consts.append((_Z, _Y, _ZX, field.one))
    pres = AlgebraPresentation(
        field, 6, LAMBDA_LABELS, basis_vector(field, 6, _ONE), consts,
        idempotents=[basis_vector(field, 6, _ONE)],
        # declared so that small-characteristic variants work too
        radical_basis=[basis_vector(field, 6, i) for i in (_X, _Y, _Z, _YX, _ZX)],
    )
    A = validate_algebra(pres, label=f"Lambda(q={field.render(q)})")
    A.q_value = q
    A.q_finite_order_warning = _has_finite_order(field, q)
    _check_lambda_structure(A)
    return A


def _has_finite_order(field, q):
    # every nonzero element of a finite field has finite order
    return field.elements is not None or q == 1 or q == -1


def _check_lambda_structure(A):
    """J^3 = 0 and Hilbert type (3, 2)."""
    rad = A.radical_basis()
    if len(rad) != 5:
        raise ValidationError(f"Lambda(q) radical has dim {len(rad)}, expected 5")
    j2 = SpanAccumulator(A.field, 6)
    for u in rad:
        for v in rad:
            j2.add(A.product_vectors(u, v))
    if j2.dim != 2:
        raise ValidationError("Lambda(q) J^2 should have dim 2")
    if any(any(A.product_vectors(u, v)) for u in rad for v in j2.rows):
        raise ValidationError("Lambda(q) J^3 should vanish")


def lambda_element(A, label_coeffs):
    """Element of L(q) from {label: coeff}."""
    v = [A.field.zero] * 6
    for lbl, c in label_coeffs.items():
        v[LAMBDA_LABELS.index(lbl)] = A.field.of(c)
    return v


def _generic_quotient(A, a, b, c, side, name):
    """A / [(ax+by+cz) + soc A] as a quotient of the regular module of the
    side (0 left, 1 right), labelled name(a,b,c), with the matrix of its
    projection from that regular module."""
    field = A.field
    a, b, c = field.of(a), field.of(b), field.of(c)
    if not (a or b or c):
        raise ValidationError(f"{name}(a,b,c) needs (a,b,c) != 0")
    reg = regular_modules(A)[side]
    span = generated_span(reg, [[field.zero, a, b, c, field.zero, field.zero],
                                basis_vector(field, 6, _YX), basis_vector(field, 6, _ZX)])
    label = f"{name}({field.render(a)},{field.render(b)},{field.render(c)})"
    M, proj, _ = quotient_module(reg, None, label=label, accumulator=span)
    return M, proj.matrix


def generic_M(A, a, b, c):
    """M(a,b,c) = A / [A(ax+by+cz) + soc A] as a quotient of the left regular
    module (the generic construction; basis comes from echelon bookkeeping)."""
    return _generic_quotient(A, a, b, c, 0, "M")[0]


def generic_M_prime(A, a, b, c):
    """M'(a,b,c) = A / [(ax+by+cz)A + soc A] as a right-module quotient."""
    return _generic_quotient(A, a, b, c, 1, "M'")[0]


def module_M1qc(A, c):
    """M(1,-q,c) on the fixed basis {1~, x~, z~} with y.1~ = q^{-1}(x~ + c z~).

    Deterministic basis for all downstream matrices; isomorphic to
    generic_M(A, 1, -q, c) (cross-checked in tests).
    """
    field = A.field
    q = A.q_value
    c = field.of(c)
    qinv = field.inv(q)
    z3 = Matrix.zero(field, 3, 3)
    acts = [None] * 6
    acts[_ONE] = Matrix.identity(field, 3)
    acts[_X] = Matrix.from_rows(field, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    acts[_Y] = Matrix(
        field,
        [
            (field.zero, field.zero, field.zero),
            (qinv, field.zero, field.zero),
            (field.mul(c, qinv), field.zero, field.zero),
        ],
        3,
    )
    acts[_Z] = Matrix.from_rows(field, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    acts[_YX] = z3
    acts[_ZX] = z3
    return validate_module(acts, "left", A, label=f"M(1,-q,{field.render(c)})")


def f1_map(M):
    """The approximation f1: M -> A, 1~ |-> x - y, of M = module_M1qc(A, c)."""
    A = M.algebra
    field = A.field
    reg = regular_modules(A)[0]
    cols = [
        lambda_element(A, {"x": 1, "y": -1}),        # f1(1~) = x - y
        lambda_element(A, {"yx": A.q_value}),        # f1(x~) = x(x-y) = q.yx
        [field.zero] * 6,                            # f1(z~) = z(x-y) = 0
    ]
    return ModuleMap(M, reg, Matrix.from_columns(field, cols, 6))


def ideal_A_w_A(A, w):
    """The two-sided ideal AwA as a left submodule of the regular module."""
    reg = regular_modules(A)[0]
    gens = [A.product_vectors(w, basis_vector(A.field, A.dim, i)) for i in range(A.dim)]
    return submodule_generated(reg, gens, label="AwA")


def ideal_A_w(A, w):
    """The left ideal Aw as a submodule of the regular module."""
    reg = regular_modules(A)[0]
    return submodule_generated(reg, [w], label="Aw")


def ideal_w_A(A, w):
    """The right ideal wA as a submodule of the right regular module."""
    reg = regular_modules(A)[1]
    return submodule_generated(reg, [w], label="wA")


# ---------------------------------------------------------------------------
# the one-loop-plus-arrow algebra (projectives are the only semi-GPs)

LSGP_LABELS = ["e1", "e2", "alpha", "beta"]


def lsgp_algebra(field=QQ):
    """Path algebra of (loop beta at 2, arrow alpha: 2 -> 1) modulo beta^2
    and alpha o beta.  Basis e1, e2, alpha, beta; dim 4; radical dim 2.
    Built once per process for each field (monomod.memo.interned)."""
    return _lsgp_algebra(field)


@interned
def _lsgp_algebra(field):
    one = field.one
    consts = [
        (0, 0, 0, one),   # e1 e1
        (1, 1, 1, one),   # e2 e2
        (2, 1, 2, one),   # alpha e2
        (0, 2, 2, one),   # e1 alpha
        (3, 1, 3, one),   # beta e2
        (1, 3, 3, one),   # e2 beta
    ]
    pres = AlgebraPresentation(
        field, 4, LSGP_LABELS, [one, one, field.zero, field.zero], consts,
        idempotents=[[one, 0, 0, 0], [0, one, 0, 0]],
    )
    return validate_algebra(pres, label="loop-arrow")


def _rep_module(A, d1, d2, alpha, beta, label):
    """Module over lsgp_algebra from vertex dims and arrow matrices
    (alpha: X2 -> X1 is d1 x d2, beta: X2 -> X2 is d2 x d2)."""
    field = A.field
    dims = [d1, d2]
    # the alpha block X2 -> X1 is empty when either vertex space is zero
    alpha_block = {(0, 1): Matrix.from_rows(field, alpha, d2)} if d1 and d2 else {}
    acts = [
        Matrix.from_blocks(field, dims, dims, blocks)
        for blocks in (
            {(0, 0): Matrix.identity(field, d1)},           # e1
            {(1, 1): Matrix.identity(field, d2)},           # e2
            alpha_block,                                    # alpha
            {(1, 1): Matrix.from_rows(field, beta, d2)},    # beta
        )
    ]
    return validate_module(acts, "left", A, label=label)


def lsgp_example(field=QQ):
    """The algebra plus its five indecomposables S1, S2, P2, I1, I2
    (P1 = S1); dims 1, 1, 3, 2, 2."""
    A = lsgp_algebra(field)
    S1 = _rep_module(A, 1, 0, [], [], "S(1)")
    S2 = _rep_module(A, 0, 1, [], [[0]], "S(2)")
    P2 = _rep_module(A, 1, 2, [[1, 0]], [[0, 0], [1, 0]], "P(2)")
    I1 = _rep_module(A, 1, 1, [[1]], [[0]], "I(1)")
    I2 = _rep_module(A, 0, 2, [], [[0, 0], [1, 0]], "I(2)")
    return {"algebra": A, "modules": [S1, S2, P2, I1, I2],
            "names": ["S(1)", "S(2)", "P(2)", "I(1)", "I(2)"]}


def standard_family(field=QQ, q=Fraction(2), c=Fraction(0)):
    """The whole worked family in one bundle: the algebra, M(1,-q,c) on its
    fixed basis, f1, and the triple X(c) = (A; M(1,-q,c))_{f1} over the 2x2
    self-extension (flat dim 9)."""
    A = lambda_q(field, q)
    M = module_M1qc(A, c)
    f1 = f1_map(M)
    dd = a_dual(M)
    if generated_span(dd.dual, [dd.coords_of_map(f1.matrix)]).dim != dd.dual.dim:
        raise ValidationError("f1 does not generate the dual (approximation fails)")
    parent = t2_algebra(A)
    X_c = t2_triple(parent, regular_modules(A)[0], M, f1)
    if X_c.X.dim + X_c.Y.dim != 9:
        raise ValidationError("X(c) flat dimension is not 9")
    return {
        "algebra": A,
        "M": M,
        "f1": f1,
        "parent": parent,
        "X_c": X_c,
        "q": A.q_value,
        "finite_order_warning": A.q_finite_order_warning,
    }


@memo
def _m_prime(A):
    """M'(1,-q^-1,0) and the matrix of its projection from A: the target
    of theta, which c does not change."""
    field = A.field
    return _generic_quotient(A, field.one, field.neg(field.inv(A.q_value)),
                             field.zero, 1, "M'")


def dual_iso_theta(M):
    """The explicit isomorphism for M = M(1,-q,c): theta: M* -> M'(1,-q^-1,0),
    f |-> a with (x-y)a = f(1~)."""
    A = M.algebra
    field = A.field
    Mp, projMp = _m_prime(A)
    dd = a_dual(M)
    solver = Eliminator(A.left_multiplication(lambda_element(A, {"x": 1, "y": -1})))
    cols = []
    for f in dd.basis:
        a = solver.solve(list(f.matrix.column(0)))
        if a is None:
            raise ValidationError("f(1~) is not in (x-y)A")
        cols.append(projMp.apply(a))
    return ModuleMap(dd.dual, Mp, Matrix.from_columns(field, cols, Mp.dim))


@memo
def dual_iso_omega2(A):
    """omega2: M'(1,-q^-1,0)* -> A(x-y)A, g |-> g(1~'), the second link of
    the chain from M(1,-q,c)* to A(x-y)A.  It needs g(1~') in A(x-y)A,
    which fails for q = 1."""
    field = A.field
    Mp = _m_prime(A)[0]
    AwA, inclAwA = ideal_A_w_A(A, lambda_element(A, {"x": 1, "y": -1}))
    ddp = a_dual(Mp)
    elw = Eliminator(inclAwA.matrix)
    cols = []
    for g in ddp.basis:
        s = elw.solve(list(g.matrix.column(0)))
        if s is None:
            raise ValidationError("g(1~') is not in A(x-y)A")
        cols.append(s)
    return ModuleMap(ddp.dual, AwA, Matrix.from_columns(field, cols, AwA.dim))


# ---------------------------------------------------------------------------
# scenarios


class Scenario:
    """A named, parameterized batch of claims with deterministic reports."""

    def __init__(self, name, params):
        self.name = name
        self.params = params
        self.claims = []

    def claim(self, description, anchor, status, data=None):
        if status not in ("pass", "fail", "unknown"):
            raise ValueError(f"bad claim status {status!r}")
        self.claims.append(
            {"description": description, "anchor": anchor, "status": status,
             "data": data if data is not None else {}}
        )

    def claim_bool(self, description, anchor, ok, data=None):
        self.claim(description, anchor, "pass" if ok else "fail", data)

    def claim_verdict(self, description, anchor, verdict, data):
        """A claim that passes when the verdict holds and fails when it fails."""
        status = {Verdict.HOLDS: "pass", Verdict.FAILS: "fail"}.get(verdict.status, "unknown")
        self.claim(description, anchor, status, data)

    @property
    def failed(self):
        return [c for c in self.claims if c["status"] == "fail"]

    @property
    def unknown(self):
        return [c for c in self.claims if c["status"] == "unknown"]

    def describe(self):
        return {
            "scenario": self.name,
            "params": {k: _json_safe(v) for k, v in sorted(self.params.items())},
            "claims": [_json_safe(c) for c in self.claims],
            "summary": {
                "pass": sum(1 for c in self.claims if c["status"] == "pass"),
                "fail": len(self.failed),
                "unknown": len(self.unknown),
            },
        }


def _params_with_defaults(params, **defaults):
    out = dict(defaults)
    out.update(params or {})
    return out


def _family_params(params, **defaults):
    """Parameters of a scenario on the L(q) family (defaults field Q, q = 2)
    and its parsed ground field."""
    p = _params_with_defaults(params, field="Q", q=2, **defaults)
    return p, Field.parse_spec(p["field"])


def _scenario_dual_iso_family(params):
    """M(1,-q,c)* is isomorphic to M'(1,-q^-1,0), uniformly in c."""
    p, field = _family_params(params, c_values=(0, 1, -1), seed=0)
    if "c" in p:
        p["c_values"] = (p.pop("c"),)
    sc = Scenario("dual-iso-family", p)
    A = lambda_q(field, field.of(p["q"]))
    for c in p["c_values"]:
        c = field.of(c)
        M = module_M1qc(A, c)
        theta = dual_iso_theta(M)
        v = is_isomorphic(theta.source, theta.target, seed=p["seed"])
        sc.claim_verdict(
            f"dual of M(1,-q,{field.render(c)}) is isomorphic to M'(1,-q^-1,0)",
            "dual-iso",
            v,
            {"verdict": v.describe(), "dual_dim": theta.source.dim},
        )
        sc.claim_bool(
            "the constructive chain f |-> a, (x-y)a = f(1~) is itself invertible",
            "dual-iso-chain",
            theta.is_isomorphism_map(),
        )
    return sc


def _scenario_x_family(params):
    """The one-parameter family of non-monic double semi-GP triples."""
    p, field = _family_params(params, c=0, bound=6, seed=0)
    sc = Scenario("x-family", p)
    fam = standard_family(field, field.of(p["q"]), field.of(p["c"]))
    A, parent, Xc = fam["algebra"], fam["parent"], fam["X_c"]
    bound, seed = p["bound"], p["seed"]
    if fam["finite_order_warning"]:
        sc.claim("q has finite multiplicative order; high-degree expectations "
                 "may not transfer", "finite-order-warning", "unknown", {})
    mono, wit = is_monic_bimodule(Xc)
    sc.claim_bool(
        "X(c) is not monic and the kernel is one-dimensional",
        "x-family/not-monic",
        (not mono) and Xc.phi.kernel_dim() == 1,
        {"kernel_witness": [field.render(x) for x in (wit or [])]},
    )
    flat = Xc.flatten()
    v = is_semi_gp(flat, bound, seed=seed)
    sc.claim_bool(
        f"X(c) has no Ext witness against the algebra up to degree {bound}",
        "x-family/sgp",
        v.status != "fails",
        {"verdict": v.describe()},
    )
    b = t2_dual_bundle(Xc)
    vdual = is_semi_gp(b.dual_triple.flatten(), bound, seed=seed)
    sc.claim_bool(
        f"the dual of X(c) has no Ext witness up to degree {bound}",
        "x-family/dual-sgp",
        vdual.status != "fails",
        {"verdict": vdual.describe()},
    )
    ph = canonical_map(flat)
    sc.claim_bool(
        "the canonical map of X(c) has kernel and cokernel of dimension 1",
        "x-family/canonical-map",
        ph.kernel_dim() == 1 and ph.cokernel_dim() == 1,
        {"rank": ph.rank(), "kernel_dim": ph.kernel_dim(),
         "cokernel_dim": ph.cokernel_dim()},
    )
    vdd = is_semi_gp(b.double_dual_triple.flatten(), bound, seed=seed)
    sc.claim_bool(
        f"the double dual of X(c) has an Ext witness at some degree <= {bound} "
        "(computed, not assumed)",
        "x-family/double-dual-witness",
        vdd.status == "fails",
        {"verdict": vdd.describe()},
    )
    # explicit form of the dual triple: ((x - q^-1 y)A, A)_inclusion
    q = fam["q"]
    wdual = lambda_element(A, {"x": 1, "y": field.neg(field.inv(q))})
    U, inclU = ideal_w_A(A, wdual)
    regR = regular_modules(A)[1]
    sigma = ModuleMap(U, regR, inclU.matrix)
    target_dual = RightTriple(parent, U, regR, sigma)
    vd = is_isomorphic(b.dual_triple.flatten(), target_dual.flatten(), seed=seed)
    sc.claim_verdict(
        "X(c)* is the right triple ((x - q^-1 y)A, A) along the embedding",
        "x-family/dual-form",
        vd,
        {"verdict": vd.describe()},
    )
    w = lambda_element(A, {"x": 1, "y": -1})
    AwA, inclAwA = ideal_A_w_A(A, w)
    target_dd = t2_triple(parent, regular_modules(A)[0], AwA, inclAwA)
    vdd2 = is_isomorphic(b.double_dual_triple.flatten(), target_dd.flatten(), seed=seed)
    sc.claim_verdict(
        "X(c)** is the triple (A; A(x-y)A) along the embedding",
        "x-family/double-dual-form",
        vdd2,
        {"verdict": vdd2.describe()},
    )
    # structure of A(x-y)A
    Aw, _ = ideal_A_w(A, w)
    zx = lambda_element(A, {"zx": 1})
    acc = SpanAccumulator(field, 6)
    for i in range(6):
        acc.add(A.product_vectors(basis_vector(field, 6, i), w))
    sc.claim_bool(
        "A(x-y) has dimension 2, A(x-y)A dimension 3, and zx lies outside A(x-y)",
        "x-family/ideal-decomposition",
        Aw.dim == 2 and AwA.dim == 3 and not acc.contains(zx),
        {"dim_Aw": Aw.dim, "dim_AwA": AwA.dim},
    )
    # the canonical map of M through the chain is right multiplication by x-y
    description = ("through the stored identifications the canonical map of "
                   "M(1,-q,c) is right multiplication by x-y")
    anchor = "x-family/canonical-map-as-multiplication"
    try:
        omega2 = dual_iso_omega2(A)
    except ValidationError as exc:
        sc.claim(description, anchor, "unknown", {"reason": str(exc)})
    else:
        theta_star = dual_map(dual_iso_theta(fam["M"]))
        omega = omega2.compose(
            ModuleMap(a_dual(a_dual(fam["M"]).dual).dual, omega2.source,
                      theta_star.matrix.inverse(), check=False)
        )
        lhs = omega.compose(canonical_map(fam["M"]))
        # right multiplication by x-y sends 1~, x~, z~ where f1 sends them
        rmap = ModuleMap(fam["M"], AwA,
                         Eliminator(inclAwA.matrix).solve_matrix(fam["f1"].matrix))
        sc.claim_bool(description, anchor, lhs.matrix == rmap.matrix)
    # classification summary of M itself
    repM = classify(fam["M"], bound=bound, seed=seed)
    sc.claim_bool(
        "M(1,-q,c) is not torsionless and neither M nor its dual has an Ext "
        f"witness up to degree {bound}",
        "x-family/base-module",
        (not repM.torsionless)
        and repM.semi_gp.status != "fails"
        and repM.dual_semi_gp.status != "fails",
        {"report": repM.describe()},
    )
    return sc


def _scenario_approximation_pipeline(params):
    """approximation_triple(M(1,-q,c)) reproduces X(c) up to isomorphism."""
    p, field = _family_params(params, c=0, seed=0)
    sc = Scenario("approximation-pipeline", p)
    fam = standard_family(field, field.of(p["q"]), field.of(p["c"]))
    ap = approximation_triple(fam["M"], parent=fam["parent"])
    v = is_isomorphic(ap.flatten(), fam["X_c"].flatten(), seed=p["seed"])
    sc.claim_verdict(
        "the approximation triple of M(1,-q,c) is isomorphic to X(c)",
        "approximation-pipeline/iso",
        v,
        {"verdict": v.describe(), "flat_dim": ap.X.dim + ap.Y.dim},
    )
    return sc


@interned
def _kx2_algebra():
    """k[x]/(x^2) over Q, built once per process."""
    pres = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], idempotents=[[1, 0]],
    )
    return validate_algebra(pres, label="k[x]/(x^2)")


def _scenario_t2_lift_sampled(params):
    """Sampled checks that the approximation construction lifts module
    classes to the 2x2 extension consistently."""
    p = _params_with_defaults(params, algebra="kx2", samples=10, bound=4, seed=0,
                              max_dim=5)
    sc = Scenario("t2-lift-sampled", p)
    if p["algebra"] == "kx2":
        A = _kx2_algebra()
    elif p["algebra"] == "loop-arrow":
        A = lsgp_algebra(QQ)
    else:
        raise ValidationError(f"unknown sample algebra {p['algebra']!r}")
    parent = t2_algebra(A)
    rng = random.Random(p["seed"])
    inj_mismatches = 0
    flat_tl_mismatches = 0
    checked = 0
    for _ in range(p["samples"]):
        L = random_module(A, rng, "left", p["max_dim"], allow_zero=False)
        tr = approximation_triple(L, parent=parent)
        rep = classify_triple_assert(tr, bound=p["bound"], seed=p["seed"])
        torsionless = rep["torsionless_structure"]["y_torsionless"]   # L is the triple's Y
        if tr.phibar().is_injective() != torsionless:
            inj_mismatches += 1
        if rep["flat"]["torsionless"] != torsionless:
            flat_tl_mismatches += 1
        checked += 1
    sc.claim_bool(
        "the approximation map is injective exactly for torsionless modules",
        "t2-lift/injectivity",
        inj_mismatches == 0,
        {"samples": checked, "mismatches": inj_mismatches},
    )
    sc.claim_bool(
        "the lifted triple is torsionless exactly when the module is",
        "t2-lift/torsionless",
        flat_tl_mismatches == 0,
        {"samples": checked, "mismatches": flat_tl_mismatches},
    )
    sc.claim_bool(
        "every sampled lift passes the full triple classification cross-checks",
        "t2-lift/classification",
        True,
        {"samples": checked},
    )
    return sc


def _scenario_loop_arrow_sgp(params):
    """The loop-arrow algebra: displayed Ext non-vanishings and the fact
    that only projectives are semi-Gorenstein-projective (on the known
    indecomposable list)."""
    p = _params_with_defaults(params, bound=6, seed=0)
    sc = Scenario("loop-arrow-sgp", p)
    ex = lsgp_example()
    S1, S2, P2, I1, I2 = ex["modules"]
    checks = [
        ("Ext^1(S(2), P(2)) is nonzero", S2, P2, 1),
        ("Ext^1(I(2), S(1)) is nonzero", I2, S1, 1),
        ("Ext^2(I(1), S(1)) is nonzero", I1, S1, 2),
        ("Ext^1(I(1), S(2)) is nonzero", I1, S2, 1),
    ]
    for desc, m, n, deg in checks:
        dims = ext_dims(m, n, deg).dims
        sc.claim_bool(desc, "loop-arrow/ext-display", dims[deg] != 0, {"dims": dims})
    projective_names = {"S(1)", "P(2)"}
    for name, m in zip(ex["names"], ex["modules"]):
        v = is_semi_gp(m, p["bound"], seed=p["seed"])
        if name in projective_names:
            sc.claim_bool(
                f"{name} is projective and semi-Gorenstein-projective",
                "loop-arrow/projective",
                v.status == "holds",
                {"verdict": v.describe()},
            )
        else:
            sc.claim_bool(
                f"{name} has an Ext witness at degree <= {p['bound']}",
                "loop-arrow/witness",
                v.status == "fails",
                {"verdict": v.describe()},
            )
    return sc


SCENARIOS = {
    "dual-iso-family": _scenario_dual_iso_family,
    "x-family": _scenario_x_family,
    "approximation-pipeline": _scenario_approximation_pipeline,
    "t2-lift-sampled": _scenario_t2_lift_sampled,
    "loop-arrow-sgp": _scenario_loop_arrow_sgp,
}


def run_scenario(name, params=None):
    """Run a registered scenario; deterministic given (name, params)."""
    fn = SCENARIOS.get(name)
    if fn is None:
        raise ValidationError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    return fn(params or {})
