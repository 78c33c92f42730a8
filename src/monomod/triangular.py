"""Triangular matrix algebras [[A, M], [0, B]]: triple-module identification,
monic-with-respect-to-bimodule checks, the 2x2 self-extension dual and
double-dual formulas with all identifications stored as explicit matrices,
and the triple-level classification suite.
"""

from .algebra import AlgebraPresentation, regular_modules, validate_algebra
from .duality import a_dual, canonical_map, classify, dual_map, left_add_approximation
from .errors import DimensionMismatch, ValidationError
from .homology import ext_comparison_table, is_semi_gp, resolution
from .linalg import Eliminator, Matrix, basis_vector
from .modules import (
    Module,
    ModuleMap,
    Verdict,
    idempotent_slices,
    regular_bimodule,
    restricted_action,
    subquotient,
    tensor_over,
    validate_module,
)


def _part_ranges(nA, nM, nB):
    """Coordinate ranges of the parts "A", "M" and "B" of the flat
    [[A, M], [0, B]]: its basis is the A basis, then M, then B."""
    return {"A": range(nA), "M": range(nA, nA + nM), "B": range(nA + nM, nA + nM + nB)}


def _flat_vector(field, parts, pieces):
    """The flat vector that is pieces[p] on part p and zero elsewhere."""
    out = [field.zero] * parts["B"].stop
    for p, vec in pieces.items():
        out[parts[p].start:parts[p].stop] = vec
    return out


class TriangularAlgebra:
    """Lambda = [[A, M], [0, B]] with its validated flat realization."""

    def __init__(self, A, B, bimodule, flat, is_t2):
        self.A = A
        self.B = B
        self.bimodule = bimodule
        self.flat = flat
        self.nA = A.dim
        self.nM = bimodule.dim
        self.nB = B.dim
        self.parts = _part_ranges(self.nA, self.nM, self.nB)
        self.is_t2 = is_t2

    def embed(self, part, vec):
        """vec, a vector of A, M or B, as a flat vector of part "A", "M" or "B"."""
        return _flat_vector(self.flat.field, self.parts, {part: vec})

    @property
    def e1(self):
        return self.embed("A", self.A.unit)

    @property
    def e2(self):
        return self.embed("B", self.B.unit)

    def __repr__(self):
        return f"Triangular({self.A!r}, {self.B!r}, M dim {self.nM})"


def build_triangular(A, B, bimodule, label=""):
    """Validate and build [[A, M], [0, B]] from an (A, B)-bimodule M."""
    if bimodule.left_algebra is not A or bimodule.right_algebra is not B:
        raise DimensionMismatch("bimodule must be an (A, B)-bimodule")
    field = A.field
    if field != B.field:
        raise DimensionMismatch("A and B must share the ground field")
    nA, nM, nB = A.dim, bimodule.dim, B.dim
    parts = _part_ranges(nA, nM, nB)
    oM, oB = parts["M"].start, parts["B"].start
    consts = []
    for (i, j), terms in A.table.items():
        for k, c in terms:
            consts.append((i, j, k, c))
    for (i, j), terms in B.table.items():
        for k, c in terms:
            consts.append((oB + i, oB + j, oB + k, c))
    for i in range(nA):
        L = bimodule.left_actions[i]
        for j in range(nM):
            for k in range(nM):
                c = L.rows[k][j]
                if c:
                    consts.append((i, oM + j, oM + k, c))
    for i in range(nB):
        R = bimodule.right_actions[i]
        for j in range(nM):
            for k in range(nM):
                c = R.rows[k][j]
                if c:
                    consts.append((oM + j, oB + i, oM + k, c))
    unit = _flat_vector(field, parts, {"A": A.unit, "B": B.unit})
    idemA = A.idempotents if A.idempotents is not None else [A.unit]
    idemB = B.idempotents if B.idempotents is not None else [B.unit]
    idems = ([_flat_vector(field, parts, {"A": e}) for e in idemA]
             + [_flat_vector(field, parts, {"B": e}) for e in idemB])
    labels = (
        [f"a:{l}" for l in A.basis_labels]
        + [f"m:{i}" for i in range(nM)]
        + [f"b:{l}" for l in B.basis_labels]
    )
    # rad(Lambda) = rad(A) (+) M (+) rad(B); declared (and re-verified) so
    # that small-characteristic ground fields keep minimal covers
    try:
        rad = ([_flat_vector(field, parts, {"A": v}) for v in A.radical_basis()]
               + [_flat_vector(field, parts, {"M": basis_vector(field, nM, j)})
                  for j in range(nM)]
               + [_flat_vector(field, parts, {"B": v}) for v in B.radical_basis()])
    except ValidationError:
        rad = None
    pres = AlgebraPresentation(field, parts["B"].stop, labels, unit, consts,
                               idempotents=idems, radical_basis=rad)
    flat = validate_algebra(pres, label=label or f"tri({A.label},{B.label})")
    is_t2 = A is B and bimodule._cache.get("is_regular_bimodule", False)
    return TriangularAlgebra(A, B, bimodule, flat, is_t2)


def t2_algebra(A):
    """T2(A) = [[A, A], [0, A]] with the regular bimodule; cached on A."""
    got = A._cache.get("t2_algebra")
    if got is not None:
        return got
    bim = regular_bimodule(A)
    bim._cache["is_regular_bimodule"] = True
    tri = build_triangular(A, A, bim, label=f"T2({A.label or 'A'})")
    return A._cache.setdefault("t2_algebra", tri)


# ---------------------------------------------------------------------------
# triples <-> flat modules


class TripleModule:
    """Left module over [[A, M], [0, B]] as (X, Y, phi: M (x)_B Y -> X)."""

    def __init__(self, parent, X, Y, phi, tensor_result):
        self.parent = parent
        self.X = X
        self.Y = Y
        self.phi = phi        # ModuleMap: tensor module -> X
        self.tensor = tensor_result
        self._cache = {}

    @property
    def label(self):
        return f"({self.X.label}; {self.Y.label})"

    def flatten(self):
        got = self._cache.get("flat")
        if got is None:
            got = triple_to_module(self)
            self._cache["flat"] = got
        return got

    def phibar(self):
        """For T2 parents: phi transported through M (x)_A Y = Y, as Y -> X."""
        got = self._cache.get("phibar")
        if got is None:
            mu = _t2_mu(self.parent, self.Y)
            got = ModuleMap(
                self.Y, self.X, self.phi.matrix * mu.inverse(), check=False
            )
            self._cache["phibar"] = got
        return got

    def __repr__(self):
        return f"Triple({self.label}, flat dim {self.X.dim + self.Y.dim})"


def _tensor_cached(parent, Y):
    key = ("tensorM", id(parent.bimodule))
    tens = Y._cache.get(key)
    if tens is None:
        tens = tensor_over(parent.bimodule, Y, validate=False)
        Y._cache[key] = tens
    return tens


def make_triple(parent, X, Y, phi_matrix_or_map):
    """TripleModule from X (left A), Y (left B) and phi on M (x)_B Y."""
    if X.algebra is not parent.A or X.side != "left":
        raise DimensionMismatch("X must be a left A-module")
    if Y.algebra is not parent.B or Y.side != "left":
        raise DimensionMismatch("Y must be a left B-module")
    tens = _tensor_cached(parent, Y)
    if isinstance(phi_matrix_or_map, ModuleMap):
        phi = phi_matrix_or_map
        if phi.source.dim != tens.module.dim:
            raise DimensionMismatch("phi source must be M (x)_B Y")
        phi = ModuleMap(tens.module, X, phi.matrix)
    else:
        phi = ModuleMap(tens.module, X, phi_matrix_or_map)
    return TripleModule(parent, X, Y, phi, tens)


def _t2_mu(parent, Y):
    """The canonical iso A (x)_A Y -> Y (matrix on tensor coordinates)."""
    tens = _tensor_cached(parent, Y)
    field = Y.field
    nA, dY = parent.nA, Y.dim
    cols = []
    for i in range(nA):
        act = Y.actions[i]
        for j in range(dY):
            cols.append(act.column(j))
    ev = Matrix.from_columns(field, cols, dY)   # pure coords -> Y
    return ev * tens.section


def t2_triple(parent, X, Y, phibar):
    """Triple over T2 from a plain A-map phibar: Y -> X."""
    if not parent.is_t2:
        raise ValidationError("t2_triple needs a T2 parent")
    tens = _tensor_cached(parent, Y)
    mu = _t2_mu(parent, Y)
    phi = ModuleMap(tens.module, X, phibar.matrix * mu, check=False)
    return TripleModule(parent, X, Y, phi, tens)


def triple_to_module(t):
    """The flat left module on X (+) Y; validated."""
    parent = t.parent
    field = parent.flat.field
    dX, dY = t.X.dim, t.Y.dim
    dims = [dX, dY]
    # phi on the pure tensors m_k (x) y_j, one dX x dY block per k
    L = t.phi.matrix * t.tensor.pure_matrix
    acts = [Matrix.from_blocks(field, dims, dims, {(0, 0): a}) for a in t.X.actions]
    acts += [
        Matrix.from_blocks(field, dims, dims,
                           {(0, 1): L.submatrix(range(dX), range(k * dY, (k + 1) * dY))})
        for k in range(parent.nM)
    ]
    acts += [Matrix.from_blocks(field, dims, dims, {(1, 1): b}) for b in t.Y.actions]
    return validate_module(acts, "left", parent.flat, label=t.label)


def module_to_triple(parent, m):
    """Split a flat left Lambda-module back into (X, Y, phi); exact inverse
    of triple_to_module on its image."""
    if m.algebra is not parent.flat or m.side != "left":
        raise ValidationError("module is not a left module over this triangular algebra")
    field = m.field
    xs, ys = idempotent_slices(m, [parent.e1, parent.e2])

    def part_actions(part, source, target, message):
        n = len(parent.parts[part])
        return [restricted_action(m, parent.embed(part, basis_vector(field, n, i)),
                                  source, target, message)
                for i in range(n)]

    X = Module(parent.A, "left", xs[0].ncols,
               part_actions("A", xs, xs, "X part is not A-invariant"),
               label=f"{m.label}.X")
    Y = Module(parent.B, "left", ys[0].ncols,
               part_actions("B", ys, ys, "Y part is not B-invariant"),
               label=f"{m.label}.Y")
    tens = tensor_over(parent.bimodule, Y, validate=False)
    # phi on pure tensors: m_k (x) y_j  |->  (embedded m_k) . y_j
    blocks = part_actions("M", ys, xs, "bimodule action does not land in the X part")
    L = Matrix.from_blocks(field, [X.dim], [Y.dim] * parent.nM,
                           {(0, k): b for k, b in enumerate(blocks)})
    phi_mat = L * tens.section
    # well-definedness: L must factor through the tensor quotient
    if phi_mat * tens.pure_matrix != L:
        raise ValidationError("bimodule action does not factor through the tensor product")
    phi = ModuleMap(tens.module, X, phi_mat, check=False)
    return TripleModule(parent, X, Y, phi, tens)


def is_monic_bimodule(t):
    """(phi injective?, kernel witness vector or None)."""
    K = t.phi.matrix.kernel_matrix()
    if K.ncols == 0:
        return True, None
    return False, list(K.column(0))


# ---------------------------------------------------------------------------
# right triples (U, V)_psi over T2


class RightTriple:
    """Right module over T2 as (U, V) with psibar: U -> V a right A-map."""

    def __init__(self, parent, U, V, psibar):
        self.parent = parent
        self.U = U
        self.V = V
        self.psibar = psibar
        self._cache = {}

    @property
    def label(self):
        return f"({self.U.label}, {self.V.label})"

    def flatten(self):
        got = self._cache.get("flat")
        if got is None:
            got = right_triple_to_module(self)
            self._cache["flat"] = got
        return got


def right_triple_to_module(t):
    """Flat right module on U (+) V: the bimodule part sends u to psibar(u).m."""
    parent = t.parent
    if not parent.is_t2:
        raise ValidationError("right triples are implemented for T2 parents")
    field = parent.flat.field
    dims = [t.U.dim, t.V.dim]
    acts = [Matrix.from_blocks(field, dims, dims, {(0, 0): a}) for a in t.U.actions]
    acts += [
        Matrix.from_blocks(field, dims, dims, {(1, 0): t.V.actions[k] * t.psibar.matrix})
        for k in range(parent.nM)
    ]
    acts += [Matrix.from_blocks(field, dims, dims, {(1, 1): b}) for b in t.V.actions]
    return validate_module(acts, "right", parent.flat, label=t.label)


# ---------------------------------------------------------------------------
# the T2 dual bundle


class T2DualBundle:
    """All the 2x2 dual/double-dual data of one left T2-module, with the
    explicit identifications h (dual), h2 (dual of the dual triple) and
    tilde_h (double dual) to the generic Hom-space realizations."""

    __slots__ = (
        "pi", "pi_star", "p", "beta",
        "dual_triple", "double_dual_triple",
        "h", "h2", "tilde_h", "phi_components", "coker",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


def _decompose_flat_dual_basis(parent, t, flat):
    """Split each basis element of Hom(flat, Lambda) into (alpha1, alpha2)
    on the X part and its Y component; check the shape forced by
    Lambda-linearity (Y component = alpha2 o phibar, B-rows only, ...)."""
    dd = a_dual(flat)
    pA, pM, pB = parent.parts["A"], parent.parts["M"], parent.parts["B"]
    xr = range(t.X.dim)
    yr = range(t.X.dim, t.X.dim + t.Y.dim)
    phibar = t.phibar()
    out = []
    for f in dd.basis:
        F = f.matrix
        a1 = F.submatrix(pA, xr)
        a2 = F.submatrix(pM, xr)
        if not F.submatrix(pB, xr).is_zero():
            raise ValidationError("flat dual basis has an X component outside e1.Lambda")
        yb = F.submatrix(pB, yr)
        if not F.submatrix(range(pB.start), yr).is_zero():
            raise ValidationError("flat dual basis has a Y component outside e2.Lambda")
        if yb != a2 * phibar.matrix:
            raise ValidationError("Y component is not alpha2 o phibar")
        out.append((a1, a2))
    return dd, out


def t2_dual_bundle(t):
    """Duals, double duals and the canonical map of a T2 triple by the 2x2
    formulas, with exact agreement against the generic constructions."""
    parent = t.parent
    if not parent.is_t2:
        raise ValidationError("t2_dual_bundle needs a T2(A) parent")
    got = t._cache.get("bundle")
    if got is not None:
        return got
    A = parent.A
    field = A.field
    X, Y = t.X, t.Y
    phibar = t.phibar()
    sq = subquotient(phibar)
    coker, pi = sq.cokernel, sq.projection
    dX = a_dual(X)
    dC = a_dual(coker)
    dY = a_dual(Y)
    pi_star = dual_map(pi)                       # (Coker phi)* -> X*
    if not pi_star.is_injective():
        raise ValidationError("pi* is not injective")
    sq2 = subquotient(pi_star)
    p = sq2.projection                           # X* -> Coker pi*
    # beta: Coker pi* -> Y* with beta o p = phibar*
    phis = dual_map(phibar)                      # X* -> Y*
    bt = Eliminator(p.matrix.transpose()).solve_matrix(phis.matrix.transpose())
    if bt is None:
        raise ValidationError("phibar* does not factor through p")
    beta = ModuleMap(sq2.cokernel, dY.dual, bt.transpose(), check=False)
    assert beta.matrix * p.matrix == phis.matrix
    # dual triple ((Coker phi)*, X*)_{pi*} and the identification h
    dual_triple = RightTriple(parent, dC.dual, dX.dual, pi_star)
    Ndual = dual_triple.flatten()
    flat = t.flatten()
    ddflat, decomposed = _decompose_flat_dual_basis(parent, t, flat)
    pit = Eliminator(pi.matrix.transpose())
    hcols = []
    for a1, a2 in decomposed:
        gt = pit.solve_matrix(a1.transpose())
        if gt is None:
            raise ValidationError("alpha1 does not factor through pi")
        g = gt.transpose()
        hcols.append(list(dC.coords_of_map(g)) + list(dX.coords_of_map(a2)))
    h_mat = Matrix.from_columns(field, hcols, Ndual.dim)
    h = ModuleMap(ddflat.dual, Ndual, h_mat)     # checked: intertwining
    if h_mat.rank() != Ndual.dim or Ndual.dim != ddflat.dual.dim:
        raise ValidationError("dual identification is not invertible")
    # double dual triple (X**, (Coker pi*)*)_{p*} and tilde_h
    p_star = dual_map(p)                         # (Coker pi*)* -> X**
    ddt = t2_triple(parent, a_dual(dX.dual).dual, a_dual(sq2.cokernel).dual, p_star)
    h2 = _right_dual_identification(parent, dual_triple, Ndual, ddt, p, sq2.cokernel)
    tilde_h = dual_map(h).compose(
        ModuleMap(ddt.flatten(), a_dual(Ndual).dual, h2.matrix.inverse(), check=False)
    )
    # phi components (phi_X; beta* o phi_Y) and the canonical-map formula
    phi_X = canonical_map(X)
    phi_Y = canonical_map(Y)
    beta_star = dual_map(beta)                   # Y** -> (Coker pi*)*
    comp = Matrix.block_diag(field, [phi_X.matrix, (beta_star.compose(phi_Y)).matrix])
    phi_components = ModuleMap(flat, ddt.flatten(), comp)
    generic_phi = canonical_map(flat)
    if tilde_h.compose(phi_components).matrix != generic_phi.matrix:
        raise ValidationError("canonical-map formula disagrees with the generic map")
    bundle = T2DualBundle(
        pi=pi, pi_star=pi_star, p=p, beta=beta,
        dual_triple=dual_triple, double_dual_triple=ddt,
        h=h, h2=h2, tilde_h=tilde_h, phi_components=phi_components, coker=coker,
    )
    t._cache["bundle"] = bundle
    return bundle


def _right_dual_identification(parent, rt, Nflat, ddt, p_psi, coker_psi):
    """h2: Hom(Nflat, Lambda) -> flatten(ddt) for a right triple (U, V)_psi:
    each dual basis element splits as (beta1 o psi, (beta1; g o p_psi))."""
    field = parent.flat.field
    pA, pM, pB = parent.parts["A"], parent.parts["M"], parent.parts["B"]
    U, V, psibar = rt.U, rt.V, rt.psibar
    ur = range(U.dim)
    vr = range(U.dim, U.dim + V.dim)
    ddn = a_dual(Nflat)
    dV_data = a_dual(V)
    dCpsi = a_dual(coker_psi)
    ppt = Eliminator(p_psi.matrix.transpose())
    cols = []
    for f in ddn.basis:
        F = f.matrix
        alpha = F.submatrix(pA, ur)
        if not F.submatrix(range(pM.start, pB.stop), ur).is_zero():
            raise ValidationError("U component escapes Lambda.e1")
        b1 = F.submatrix(pM, vr)
        b2 = F.submatrix(pB, vr)
        if not F.submatrix(pA, vr).is_zero():
            raise ValidationError("V component escapes Lambda.e2")
        if alpha != b1 * psibar.matrix:
            raise ValidationError("U component is not beta1 o psi")
        gt = ppt.solve_matrix(b2.transpose())
        if gt is None:
            raise ValidationError("beta2 does not factor through Coker psi")
        cols.append(list(dV_data.coords_of_map(b1)) + list(dCpsi.coords_of_map(gt.transpose())))
    tgt = ddt.flatten()
    mat = Matrix.from_columns(field, cols, tgt.dim)
    h2 = ModuleMap(ddn.dual, tgt, mat)
    if mat.rank() != tgt.dim or tgt.dim != ddn.dual.dim:
        raise ValidationError("double-dual identification is not invertible")
    return h2


# ---------------------------------------------------------------------------
# triple-level classification


def _and_parts(exact_bools, verdicts, bound):
    """all-of combination of exact booleans and bounded verdicts."""
    for name, b in exact_bools:
        if not b:
            return Verdict.fails({"failed_condition": name})
    for name, v in verdicts:
        if v.status == Verdict.FAILS:
            return Verdict.fails({"failed_condition": name, "witness": v.witness})
    if all(v.status == Verdict.HOLDS for _n, v in verdicts):
        return Verdict.holds(None)
    return Verdict.unknown(bound)


def _definite_agreement(lhs, rhs):
    """'match' / 'mismatch' when both verdicts are definite, else 'skipped'."""
    if lhs.definite and rhs.definite:
        return "match" if lhs.status == rhs.status else "mismatch"
    return "skipped"


def _bimodule_hypotheses(parent, bound):
    """Bounded checks of the standing hypotheses on the bimodule:
    finite projective dimension on the left, projectivity on the right
    (which makes its dual injective)."""
    left = parent.bimodule.as_left_module()
    res = resolution(left)
    pd = None
    for i in range(bound + 2):
        res.extend_to(i)
        if res.steps[i].kernel.dim == 0:
            pd = i
            break
    right = parent.bimodule.as_right_module()
    resr = resolution(right)
    right_projective = resr.steps[0].kernel.dim == 0
    return {
        "left_proj_dim": pd,
        "left_proj_dim_verified_finite": pd is not None,
        "right_projective": right_projective,
        "dual_of_right_side_condition": "verified (right projective)"
        if right_projective
        else "assumed",
    }


def classify_triple(t, bound=6, seed=0):
    """Per-condition report on a triple, cross-checked against the generic
    classification of its flat module.

    Exact structural facts (torsionless / phi-epi / reflexive / beta vs
    phi*-epi) are asserted outright; bounded perpendicular conditions are
    compared only when both sides are definite.
    """
    parent = t.parent
    A = parent.A
    flat = t.flatten()
    flat_report = classify(flat, bound=bound, seed=seed)
    monic, kernel_witness = is_monic_bimodule(t)
    report = {
        "triple": t.label,
        "t2": parent.is_t2,
        "bound": bound,
        "monic": {"holds": monic, "kernel_witness": kernel_witness},
        "flat": flat_report.describe(),
        "hypotheses": _bimodule_hypotheses(parent, bound),
    }

    # perpendicular structure of the flat module through the triple data
    y_over_base = is_semi_gp(t.Y, bound, seed=seed)
    comparisons = ext_comparison_table(t.phi, regular_modules(A)[0], bound)
    phi_dual = dual_map(t.phi)
    phi_dual_epi = phi_dual.is_surjective()
    perp = {
        "y_over_base": y_over_base.describe(),
        "ext_comparison": comparisons,
        "ext_comparison_all_invertible": all(c["invertible"] for c in comparisons),
        "phi_dual_epi": phi_dual_epi,
    }
    perp_combined = _and_parts(
        [("phi_dual_epi", phi_dual_epi),
         ("ext_comparison", all(c["invertible"] for c in comparisons))],
        [("y_over_base", y_over_base)],
        bound,
    )
    perp["combined"] = perp_combined.describe()
    perp["agrees_with_flat_semi_gp"] = _definite_agreement(
        perp_combined, flat_report.semi_gp
    )
    report["perp_structure"] = perp

    # Gorenstein-projectivity criteria through the cokernel
    sqk = subquotient(t.phi)
    coker_rep = classify(sqk.cokernel, bound=bound, seed=seed)
    y_rep = classify(t.Y, bound=bound, seed=seed)
    gp_combined = _and_parts(
        [("monic", monic)],
        [("coker_gp", coker_rep.gp), ("y_gp", y_rep.gp)],
        bound,
    )
    report["gp_criteria"] = {
        "monic": monic,
        "coker_gp": coker_rep.gp.describe(),
        "y_gp": y_rep.gp.describe(),
        "combined": gp_combined.describe(),
        "agrees_with_flat_gp": _definite_agreement(gp_combined, flat_report.gp),
    }

    if not parent.is_t2:
        report["t2_formulas"] = "skipped (general bimodule; 2x2 self-extension only)"
        return report

    # T2-only structure through the dual bundle
    b = t2_dual_bundle(t)
    phibar = t.phibar()
    x_rep = classify(t.X, bound=bound, seed=seed)
    phis = dual_map(phibar)
    phi_x = canonical_map(t.X)
    phi_y = canonical_map(t.Y)
    beta_star_phi_y = dual_map(b.beta).compose(phi_y)
    beta_iso = b.beta.is_isomorphism_map()

    tl = {
        "monic": monic,
        "x_torsionless": x_rep.torsionless,
        "y_torsionless": y_rep.torsionless,
        "flat_torsionless": flat_report.torsionless,
    }
    tl["agrees"] = flat_report.torsionless == (
        monic and x_rep.torsionless and y_rep.torsionless
    )
    report["torsionless_structure"] = tl

    ep = {
        "phi_x_epi": phi_x.is_surjective(),
        "beta_star_phi_y_epi": beta_star_phi_y.is_surjective(),
        "flat_phi_epi": flat_report.phi_cokernel_dim == 0,
    }
    ep["agrees"] = ep["flat_phi_epi"] == (ep["phi_x_epi"] and ep["beta_star_phi_y_epi"])
    report["phi_epi_structure"] = ep

    rf = {
        "monic": monic,
        "x_reflexive": x_rep.reflexive,
        "beta_star_phi_y_iso": beta_star_phi_y.is_isomorphism_map(),
        "flat_reflexive": flat_report.reflexive,
    }
    rf["agrees"] = rf["flat_reflexive"] == (
        monic and rf["x_reflexive"] and rf["beta_star_phi_y_iso"]
    )
    report["reflexive_structure"] = rf

    report["beta_vs_phi_dual"] = {
        "beta_invertible": beta_iso,
        "phibar_dual_epi": phis.is_surjective(),
        "agrees": beta_iso == phis.is_surjective(),
    }

    # the eight double-semi-GP conditions
    coker_dual = a_dual(b.coker).dual
    x_dual = a_dual(t.X).dual
    y_dual = a_dual(t.Y).dual
    pi_double_dual = dual_map(b.pi_star)
    conds = {
        "x_perp": is_semi_gp(t.X, bound, seed=seed),
        "y_perp": is_semi_gp(t.Y, bound, seed=seed),
        "phibar_dual_epi": phis.is_surjective(),
        "coker_dual_perp": is_semi_gp(coker_dual, bound, seed=seed),
        "x_dual_perp": is_semi_gp(x_dual, bound, seed=seed),
        "pi_double_dual_epi": pi_double_dual.is_surjective(),
        "y_dual_perp": is_semi_gp(y_dual, bound, seed=seed),
        "beta_iso": beta_iso,
    }
    first_six = _and_parts(
        [("phibar_dual_epi", conds["phibar_dual_epi"]),
         ("pi_double_dual_epi", conds["pi_double_dual_epi"])],
        [("x_perp", conds["x_perp"]), ("y_perp", conds["y_perp"]),
         ("coker_dual_perp", conds["coker_dual_perp"]),
         ("x_dual_perp", conds["x_dual_perp"])],
        bound,
    )
    last_two = _and_parts(
        [("beta_iso", conds["beta_iso"])],
        [("y_dual_perp", conds["y_dual_perp"])],
        bound,
    )
    dsc = {k: (v.describe() if isinstance(v, Verdict) else v) for k, v in conds.items()}
    dsc["first_six"] = first_six.describe()
    dsc["last_two"] = last_two.describe()
    # conditions (1)-(6) imply (7)-(8): report the bounded implication status
    if first_six.status == Verdict.HOLDS or (
        first_six.status == Verdict.UNKNOWN
        and conds["phibar_dual_epi"] and conds["pi_double_dual_epi"]
        and all(conds[k].status != Verdict.FAILS
                for k in ("x_perp", "y_perp", "coker_dual_perp", "x_dual_perp"))
    ):
        implied_ok = conds["beta_iso"] and conds["y_dual_perp"].status != Verdict.FAILS
        dsc["implication_first_six_to_last_two"] = "holds" if implied_ok else "VIOLATED"
    else:
        dsc["implication_first_six_to_last_two"] = "vacuous"
    dsc["agrees_with_flat_double_semi_gp"] = _definite_agreement(
        _and_parts([], [("first_six", first_six), ("last_two", last_two)], bound),
        flat_report.double_semi_gp,
    )
    report["double_sgp_conditions"] = dsc

    # composite statements
    dsgp_x = x_rep.double_semi_gp
    dsgp_y = y_rep.double_semi_gp
    dsgp_coker = coker_rep.double_semi_gp
    lhs1 = _and_parts(
        [("flat_torsionless", flat_report.torsionless)],
        [("flat_double_semi_gp", flat_report.double_semi_gp)],
        bound,
    )
    rhs1 = _and_parts(
        [("monic", monic), ("x_torsionless", x_rep.torsionless),
         ("y_torsionless", y_rep.torsionless)],
        [("x_dsgp", dsgp_x), ("y_dsgp", dsgp_y), ("coker_dsgp", dsgp_coker)],
        bound,
    )
    lhs2 = _and_parts(
        [("flat_phi_epi", ep["flat_phi_epi"])],
        [("flat_double_semi_gp", flat_report.double_semi_gp)],
        bound,
    )
    rhs2 = _and_parts(
        [("phibar_dual_epi", conds["phibar_dual_epi"]),
         ("phi_x_epi", ep["phi_x_epi"]),
         ("phi_y_epi", phi_y.is_surjective())],
        [("x_sgp", x_rep.semi_gp), ("y_sgp", y_rep.semi_gp),
         ("x_dual_sgp", conds["x_dual_perp"]), ("y_dual_sgp", conds["y_dual_perp"]),
         ("coker_dual_sgp", conds["coker_dual_perp"])],
        bound,
    )
    report["composite"] = {
        "torsionless_double_sgp": {
            "flat_side": lhs1.describe(),
            "triple_side": rhs1.describe(),
            "agreement": _definite_agreement(lhs1, rhs1),
        },
        "double_sgp_phi_epi": {
            "flat_side": lhs2.describe(),
            "triple_side": rhs2.describe(),
            "agreement": _definite_agreement(lhs2, rhs2),
        },
    }
    return report


def classify_triple_assert(t, bound=6, seed=0):
    """classify_triple plus hard assertions on all exact agreements and on
    definite-pair agreements; used by tests and scenarios."""
    rep = classify_triple(t, bound=bound, seed=seed)
    if rep["t2"]:
        assert rep["torsionless_structure"]["agrees"]
        assert rep["phi_epi_structure"]["agrees"]
        assert rep["reflexive_structure"]["agrees"]
        assert rep["beta_vs_phi_dual"]["agrees"]
        assert rep["double_sgp_conditions"]["implication_first_six_to_last_two"] != "VIOLATED"
        for key in ("torsionless_double_sgp", "double_sgp_phi_epi"):
            assert rep["composite"][key]["agreement"] != "mismatch"
        assert rep["double_sgp_conditions"]["agrees_with_flat_double_semi_gp"] != "mismatch"
    assert rep["perp_structure"]["agrees_with_flat_semi_gp"] != "mismatch"
    assert rep["gp_criteria"]["agrees_with_flat_gp"] != "mismatch"
    return rep


def approximation_triple(Y, parent=None):
    """(P; Y)_phi over T2(A) with phi a left add(A)-approximation of Y.

    For Y double semi-Gorenstein-projective and not torsionless this is the
    construction that produces non-monic double semi-GP triples."""
    if parent is None:
        parent = t2_algebra(Y.algebra)
    if not parent.is_t2:
        raise ValidationError("approximation_triple needs a T2 parent")
    ap = left_add_approximation(Y)
    return t2_triple(parent, ap.target, Y, ap.map)
