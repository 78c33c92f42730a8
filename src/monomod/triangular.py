"""Triangular matrix algebras [[A, M], [0, B]]: triple-module identification,
monic-with-respect-to-bimodule checks, the 2x2 self-extension dual and
double-dual formulas with all identifications stored as explicit matrices,
and the triple-level classification suite.
"""

from .algebra import AlgebraPresentation, regular_modules, validate_algebra
from .duality import a_dual, canonical_map, classify, dual_map, left_add_approximation
from .errors import DimensionMismatch, ValidationError
from .homology import ext_comparison_table, resolution
from .linalg import Eliminator, Matrix, basis_vector
from .memo import memo
from .modules import (
    Module,
    ModuleMap,
    TensorResult,
    Verdict,
    cokernel,
    idempotent_slices,
    regular_bimodule,
    restricted_action,
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
    """Lambda = [[A, M], [0, B]] with its validated flat realization;
    is_t2 is set by t2_algebra alone."""

    def __init__(self, A, B, bimodule, flat):
        self.A = A
        self.B = B
        self.bimodule = bimodule
        self.flat = flat
        self.nA = A.dim
        self.nM = bimodule.dim
        self.nB = B.dim
        self.parts = _part_ranges(self.nA, self.nM, self.nB)
        self.is_t2 = False

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
    rad = None
    if A.has_radical() and B.has_radical():
        rad = ([_flat_vector(field, parts, {"A": v}) for v in A.radical_basis()]
               + [_flat_vector(field, parts, {"M": basis_vector(field, nM, j)})
                  for j in range(nM)]
               + [_flat_vector(field, parts, {"B": v}) for v in B.radical_basis()])
    pres = AlgebraPresentation(field, parts["B"].stop, labels, unit, consts,
                               idempotents=idems, radical_basis=rad)
    flat = validate_algebra(pres, label=label or f"tri({A.label},{B.label})")
    return TriangularAlgebra(A, B, bimodule, flat)


@memo
def t2_algebra(A):
    """T2(A) = [[A, A], [0, A]] with the regular bimodule; kept on A."""
    tri = build_triangular(A, A, regular_bimodule(A), label=f"T2({A.label or 'A'})")
    tri.is_t2 = True
    return tri


# ---------------------------------------------------------------------------
# triples <-> flat modules


class TripleModule:
    """Left module over [[A, M], [0, B]] as (X, Y, phi: M (x)_B Y -> X), with
    M (x)_B Y realized by _tensor.  Over T2(A) that realization is Y itself,
    so the triple is the paper's (X, Y, phibar) and phi is phibar: Y -> X."""

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

    @memo
    def flatten(self):
        return triple_to_module(self)

    def phibar(self):
        """For T2 parents: the A-map phibar: Y -> X, which is phi itself."""
        if not self.parent.is_t2:
            raise ValidationError("phibar needs a T2 parent")
        return self.phi

    @memo
    def coker(self):
        """(Coker phi, projection from X); both point at X, not at the triple."""
        return cokernel(self.phi)

    def __repr__(self):
        return f"Triple({self.label}, flat dim {self.X.dim + self.Y.dim})"


@memo
def _tensor_cached(Y, bimodule):
    """bimodule (x)_B Y, kept on Y."""
    return tensor_over(bimodule, Y, validate=False)


def _tensor(parent, Y):
    """M (x)_B Y as a TensorResult.  Over T2(A) it is Y itself, since
    A (x)_A Y = Y: b_k (x) y_j is b_k.y_j, so the pure-tensor map is
    [Y.b_0 | Y.b_1 | ...], and y_j is 1 (x) y_j = sum_k unit_k (b_k (x) y_j),
    the section.  That realization holds Y, so it is built per call, not
    kept on Y.  Any other bimodule gives the quotient of M (x)_k Y that
    tensor_over builds, kept on Y."""
    if not parent.is_t2:
        return _tensor_cached(Y, parent.bimodule)
    field, dY = Y.field, Y.dim
    ev = Matrix.from_blocks(field, [dY], [dY] * parent.nA,
                            {(0, k): a for k, a in enumerate(Y.actions)})
    unit = Matrix.from_columns(field, [parent.A.unit], parent.nA)
    return TensorResult(dY, ev, unit.kronecker(Matrix.identity(field, dY)), Y)


def make_triple(parent, X, Y, phi_matrix_or_map):
    """TripleModule from X (left A), Y (left B) and phi: M (x)_B Y -> X in the
    coordinates of _tensor, checked to be an A-map; over T2(A), phi is a
    map Y -> X."""
    if X.algebra is not parent.A or X.side != "left":
        raise DimensionMismatch("X must be a left A-module")
    if Y.algebra is not parent.B or Y.side != "left":
        raise DimensionMismatch("Y must be a left B-module")
    tens = _tensor(parent, Y)
    phi_matrix = (phi_matrix_or_map.matrix if isinstance(phi_matrix_or_map, ModuleMap)
                  else phi_matrix_or_map)
    return TripleModule(parent, X, Y, ModuleMap(tens.module, X, phi_matrix), tens)


def pure_tensor_phi(parent, Y, L, message):
    """The matrix of phi: M (x)_B Y -> X from its values L on the pure
    tensors m_k (x) y_j; raises ValidationError(message) unless L vanishes
    on the tensor relations."""
    tens = _tensor(parent, Y)
    phi_matrix = L * tens.section
    if phi_matrix * tens.pure_matrix != L:
        raise ValidationError(message)
    return phi_matrix


def t2_triple(parent, X, Y, phibar):
    """Triple over T2 from a plain A-map phibar: Y -> X."""
    if not parent.is_t2:
        raise ValidationError("t2_triple needs a T2 parent")
    return make_triple(parent, X, Y, phibar)


def _flat_module(parent, side, first, second, links, label):
    """The flat module on first (+) second, validated: the A part acts on
    the first summand, the B part on the second, and the k-th basis element
    of M by links[k], from the second summand to the first on a left module
    and from the first to the second on a right one."""
    field = parent.flat.field
    dims = [first.dim, second.dim]
    link_block = (0, 1) if side == "left" else (1, 0)
    acts = [Matrix.from_blocks(field, dims, dims, {(0, 0): a}) for a in first.actions]
    acts += [Matrix.from_blocks(field, dims, dims, {link_block: b}) for b in links]
    acts += [Matrix.from_blocks(field, dims, dims, {(1, 1): b}) for b in second.actions]
    return validate_module(acts, side, parent.flat, label=label)


def triple_to_module(t):
    """The flat left module on X (+) Y; validated."""
    dX, dY = t.X.dim, t.Y.dim
    # phi on the pure tensors m_k (x) y_j, one dX x dY block per k
    L = t.phi.matrix * t.tensor.pure_matrix
    links = [L.submatrix(range(dX), range(k * dY, (k + 1) * dY)) for k in range(t.parent.nM)]
    return _flat_module(t.parent, "left", t.X, t.Y, links, t.label)


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
    # phi on pure tensors: m_k (x) y_j  |->  (embedded m_k) . y_j
    blocks = part_actions("M", ys, xs, "bimodule action does not land in the X part")
    L = Matrix.from_blocks(field, [X.dim], [Y.dim] * parent.nM,
                           {(0, k): b for k, b in enumerate(blocks)})
    phi_matrix = pure_tensor_phi(
        parent, Y, L, "bimodule action does not factor through the tensor product")
    return make_triple(parent, X, Y, phi_matrix)


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

    @memo
    def flatten(self):
        return right_triple_to_module(self)


def right_triple_to_module(t):
    """Flat right module on U (+) V: the bimodule part sends u to psibar(u).m."""
    parent = t.parent
    if not parent.is_t2:
        raise ValidationError("right triples are implemented for T2 parents")
    links = [t.V.actions[k] * t.psibar.matrix for k in range(parent.nM)]
    return _flat_module(parent, "right", t.U, t.V, links, t.label)


# ---------------------------------------------------------------------------
# the T2 dual bundle


class T2DualBundle:
    """All the 2x2 dual/double-dual data of one left T2-module, with the
    explicit identifications h (dual) and tilde_h (double dual) to the
    generic Hom-space realizations."""

    __slots__ = (
        "pi", "pi_star", "p", "phibar_star", "beta", "beta_star",
        "dual_triple", "double_dual_triple",
        "h", "tilde_h", "coker",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


def _dual_blocks(parent, F, first_dim):
    """A Hom(flat, Lambda) basis matrix F cut into its blocks
    {(part, summand): block}: rows by the part "A", "M" or "B" of Lambda,
    columns by the summand 0 (the first first_dim coordinates of the flat
    module) or 1 (the rest)."""
    summands = (range(first_dim), range(first_dim, F.ncols))
    return {(part, s): F.submatrix(rows, cols)
            for part, rows in parent.parts.items() for s, cols in enumerate(summands)}


def _factor_through(solver, block, message):
    """g with g o p = block, for solver an Eliminator of the transpose of p;
    raises ValidationError(message) when block does not factor through p."""
    gt = solver.solve_matrix(block.transpose())
    if gt is None:
        raise ValidationError(message)
    return gt.transpose()


def _identification(source, target, cols, message):
    """The module map source -> target with the given columns, checked to
    intertwine and to be invertible (else ValidationError(message))."""
    mat = Matrix.from_columns(target.field, cols, target.dim)
    ident = ModuleMap(source, target, mat)
    if mat.rank() != target.dim or target.dim != source.dim:
        raise ValidationError(message)
    return ident


@memo
def t2_dual_bundle(t):
    """Duals, double duals and the canonical map of a T2 triple by the 2x2
    formulas, with exact agreement against the generic constructions."""
    parent = t.parent
    if not parent.is_t2:
        raise ValidationError("t2_dual_bundle needs a T2(A) parent")
    field = parent.A.field
    X, Y = t.X, t.Y
    phibar = t.phibar()
    coker, pi = t.coker()
    dX = a_dual(X)
    dC = a_dual(coker)
    dY = a_dual(Y)
    pi_star = dual_map(pi)                       # (Coker phi)* -> X*
    if not pi_star.is_injective():
        raise ValidationError("pi* is not injective")
    coker_pi_star, p = cokernel(pi_star)         # p: X* -> Coker pi*
    # beta: Coker pi* -> Y* with beta o p = phibar*
    phis = dual_map(phibar)                      # X* -> Y*
    pt = Eliminator(p.matrix.transpose())
    bmat = _factor_through(pt, phis.matrix, "phibar* does not factor through p")
    beta = ModuleMap(coker_pi_star, dY.dual, bmat, check=False)
    if beta.matrix * p.matrix != phis.matrix:
        raise ValidationError("beta o p differs from phibar*")
    # dual triple ((Coker phi)*, X*)_{pi*} and the identification h: each
    # dual basis element of the flat module is (alpha1, alpha2) on X with
    # Y component alpha2 o phibar, and alpha1 = g o pi
    dual_triple = RightTriple(parent, dC.dual, dX.dual, pi_star)
    Ndual = dual_triple.flatten()
    flat = t.flatten()
    ddflat = a_dual(flat)
    pit = Eliminator(pi.matrix.transpose())
    hcols = []
    for f in ddflat.basis:
        blk = _dual_blocks(parent, f.matrix, X.dim)
        if not blk["B", 0].is_zero():
            raise ValidationError("flat dual basis has an X component outside e1.Lambda")
        if not (blk["A", 1].is_zero() and blk["M", 1].is_zero()):
            raise ValidationError("flat dual basis has a Y component outside e2.Lambda")
        if blk["B", 1] != blk["M", 0] * phibar.matrix:
            raise ValidationError("Y component is not alpha2 o phibar")
        g = _factor_through(pit, blk["A", 0], "alpha1 does not factor through pi")
        hcols.append(list(dC.coords_of_map(g)) + list(dX.coords_of_map(blk["M", 0])))
    h = _identification(ddflat.dual, Ndual, hcols, "dual identification is not invertible")
    # double dual triple (X**, (Coker pi*)*)_{p*} and tilde_h
    p_star = dual_map(p)                         # (Coker pi*)* -> X**
    ddt = t2_triple(parent, a_dual(dX.dual).dual, a_dual(coker_pi_star).dual, p_star)
    h2 = _right_dual_identification(dual_triple, Ndual, ddt, pt, coker_pi_star)
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
    return T2DualBundle(
        pi=pi, pi_star=pi_star, p=p, phibar_star=phis, beta=beta, beta_star=beta_star,
        dual_triple=dual_triple, double_dual_triple=ddt,
        h=h, tilde_h=tilde_h, coker=coker,
    )


def _right_dual_identification(rt, Nflat, ddt, p_solver, coker_psi):
    """h2: Hom(Nflat, Lambda) -> flatten(ddt) for a right triple (U, V)_psi
    with flat module Nflat: each dual basis element splits as (beta1 o psi,
    (beta1; g o p_psi)); p_solver is an Eliminator of the transpose of p_psi."""
    ddn = a_dual(Nflat)
    dV_data = a_dual(rt.V)
    dCpsi = a_dual(coker_psi)
    cols = []
    for f in ddn.basis:
        blk = _dual_blocks(rt.parent, f.matrix, rt.U.dim)
        if not (blk["M", 0].is_zero() and blk["B", 0].is_zero()):
            raise ValidationError("U component escapes Lambda.e1")
        if not blk["A", 1].is_zero():
            raise ValidationError("V component escapes Lambda.e2")
        if blk["A", 0] != blk["M", 1] * rt.psibar.matrix:
            raise ValidationError("U component is not beta1 o psi")
        g = _factor_through(p_solver, blk["B", 1], "beta2 does not factor through Coker psi")
        cols.append(list(dV_data.coords_of_map(blk["M", 1])) + list(dCpsi.coords_of_map(g)))
    return _identification(ddn.dual, ddt.flatten(), cols,
                           "double-dual identification is not invertible")


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
    pd = resolution(parent.bimodule.as_left_module()).first_zero_kernel(bound + 2)
    right = parent.bimodule.as_right_module()
    resr = resolution(right)
    right_projective = resr.steps[0].kernel_dim == 0
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
    y_rep = classify(t.Y, bound=bound, seed=seed)
    y_over_base = y_rep.semi_gp
    comparisons = ext_comparison_table(t.phi, regular_modules(A)[0], bound)
    # over T2(A), phi is phibar and the dual bundle holds its dual already
    phi_dual = t2_dual_bundle(t).phibar_star if parent.is_t2 else dual_map(t.phi)
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
    coker_rep = classify(t.coker()[0], bound=bound, seed=seed)
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
    x_rep = classify(t.X, bound=bound, seed=seed)
    phis = b.phibar_star
    phi_x = canonical_map(t.X)
    phi_y = canonical_map(t.Y)
    beta_star_phi_y = b.beta_star.compose(phi_y)
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
    pi_double_dual = dual_map(b.pi_star)
    conds = {
        "x_perp": x_rep.semi_gp,
        "y_perp": y_rep.semi_gp,
        "phibar_dual_epi": phis.is_surjective(),
        "coker_dual_perp": coker_rep.dual_semi_gp,
        "x_dual_perp": x_rep.dual_semi_gp,
        "pi_double_dual_epi": pi_double_dual.is_surjective(),
        "y_dual_perp": y_rep.dual_semi_gp,
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


# the cross-checks of a classify_triple report (the first two for any parent,
# the rest for T2 only); each fails on False, "mismatch" or "VIOLATED"
_CROSS_CHECKS = (
    "perp_structure.agrees_with_flat_semi_gp", "gp_criteria.agrees_with_flat_gp",
    "torsionless_structure.agrees", "phi_epi_structure.agrees",
    "reflexive_structure.agrees", "beta_vs_phi_dual.agrees",
    "double_sgp_conditions.implication_first_six_to_last_two",
    "double_sgp_conditions.agrees_with_flat_double_semi_gp",
    "composite.torsionless_double_sgp.agreement", "composite.double_sgp_phi_epi.agreement",
)


def triple_mismatches(rep):
    """The failed cross-checks of a classify_triple report, in list order."""
    failed = []
    for path in _CROSS_CHECKS if rep["t2"] else _CROSS_CHECKS[:2]:
        value = rep
        for key in path.split("."):
            value = value[key]
        if value is False or value in ("mismatch", "VIOLATED"):
            failed.append(path)
    return failed


def classify_triple_assert(t, bound=6, seed=0):
    """classify_triple, raising a ValidationError that names every failed
    cross-check; used by tests and scenarios."""
    rep = classify_triple(t, bound=bound, seed=seed)
    failed = triple_mismatches(rep)
    if failed:
        raise ValidationError(f"triple cross-checks fail: {', '.join(failed)}",
                              witness={"triple": rep["triple"], "mismatches": failed})
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
