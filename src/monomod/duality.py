"""A-duals M* = Hom(M, A), double duals, the canonical map M -> M**,
torsionless/reflexive tests, the full classification report, and left
add(A)-approximations.

Duals are realized on the coordinate space of a stored Hom basis; every
identification downstream is an explicit matrix in these coordinates.
"""

from .algebra import regular_modules
from .errors import ValidationError
from .homology import _minimal_generators, has_minimal_covers, is_semi_gp
from .linalg import Matrix, basis_vector, combination
from .memo import memo
from .modules import (
    Module,
    ModuleMap,
    Verdict,
    direct_sum,
    generated_span,
    hom_space,
    zero_module,
)


class DualData:
    """M* on the coordinates of a Hom(M, A) basis.

    basis[i] is the ModuleMap M -> A that coordinate i stands for;
    evaluate() is the exact pairing M x M* -> A.  The basis is the canonical
    RREF basis of the Hom space, so coordinates of a member are read off at
    the pivot entries (and the read-off is verified exactly).
    """

    __slots__ = ("module", "dual", "basis", "_pivots")

    def __init__(self, module, dual, basis, pivots):
        self.module = module
        self.dual = dual
        self.basis = basis
        self._pivots = pivots

    def evaluate(self, m_vector, dual_coords):
        """The algebra element f(v) for f given by coordinates."""
        return self.map_from_coords(dual_coords).apply(m_vector)

    def coords_of_map(self, matrix):
        """Coordinates of a Hom-space element given as a full matrix.

        The stored basis is RREF in row-major vec coordinates, so the
        coefficient on basis[i] is the entry at its pivot; the expansion is
        then verified exactly."""
        dm = self.module.dim
        rows = matrix.sparse_rows
        z = matrix.field.zero
        coords = [rows[p // dm].get(p % dm, z) for p in self._pivots]
        if self.map_from_coords(coords) != matrix:
            raise ValidationError("matrix is not in the stored Hom space")
        return coords

    def map_from_coords(self, coords):
        m = self.module
        return combination(m.field, coords, [f.matrix for f in self.basis],
                           m.algebra.dim, m.dim)


def a_dual(m):
    """DualData of m.  a_dual(a_dual(m).dual) is M**.

    The module keeps the dual module, the basis matrices and their pivots
    (_dual_data), and each call builds a fresh DualData view on them: the
    view and its basis maps point back at m, and kept data that did would be
    a cycle that only the cyclic garbage collector frees."""
    reg = regular_modules(m.algebra)[0 if m.side == "left" else 1]
    dual, mats, pivots = _dual_data(m)
    return DualData(m, dual, [ModuleMap(m, reg, F, check=False) for F in mats], pivots)


@memo
def _dual_data(m):
    """(dual module, Hom(m, A) basis matrices, their pivots)."""
    algebra = m.algebra
    field = m.field
    basis = hom_space(m, regular_modules(algebra)[0 if m.side == "left" else 1])
    # the RREF basis is read off at the first nonzero of each row-major vec
    pivots = [
        next(r * m.dim + min(row) for r, row in enumerate(f.matrix.sparse_rows) if row)
        for f in basis
    ]
    dual_side = "right" if m.side == "left" else "left"
    h = len(basis)
    dd = DualData(m, None, basis, pivots)
    acts = []
    for i in range(algebra.dim):
        mult = algebra.right_matrix(i) if m.side == "left" else algebra.left_matrix(i)
        cols = []
        for f in basis:
            transformed = mult * f.matrix
            cols.append(dd.coords_of_map(transformed) if h else [])
        acts.append(Matrix.from_columns(field, cols, h))
    dual = Module(
        algebra, dual_side, h, acts,
        label=f"({m.label})*" if m.label else "dual",
    )
    return dual, [f.matrix for f in basis], pivots


def dual_map(f):
    """f*: N* -> M* for f: M -> N (precomposition on stored Hom bases)."""
    dm = a_dual(f.source)
    dn = a_dual(f.target)
    cols = [dm.coords_of_map(g.matrix * f.matrix) for g in dn.basis]
    mat = Matrix.from_columns(f.source.field, cols, len(dm.basis))
    return ModuleMap(dn.dual, dm.dual, mat, check=False)


def canonical_map(m):
    """phi_M: M -> M**, phi(v)(f) = f(v), as an explicit ModuleMap.  The
    module keeps its target and matrix (_canonical_data), not the map,
    whose source is m."""
    return ModuleMap(m, *_canonical_data(m), check=False)


@memo
def _canonical_data(m):
    """(M**, matrix of phi_M)."""
    dd = a_dual(m)
    ddd = a_dual(dd.dual)
    field = m.field
    algebra = m.algebra
    h = len(dd.basis)
    cols = []
    for j in range(m.dim):
        v = basis_vector(field, m.dim, j)
        # phi(v) as a map M* -> A: column i is f_i(v)
        values = Matrix.from_columns(
            field, [dd.basis[i].matrix.apply(v) for i in range(h)], algebra.dim
        )
        cols.append(ddd.coords_of_map(values) if len(ddd.basis) else [])
    mat = Matrix.from_columns(field, cols, len(ddd.basis))
    return ddd.dual, mat


class ClassificationReport:
    __slots__ = (
        "module", "torsionless", "reflexive", "semi_gp", "dual_semi_gp",
        "double_semi_gp", "gp", "phi_rank", "phi_kernel_dim", "phi_cokernel_dim",
        "bound",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def describe(self):
        return {
            "module": self.module.label,
            "torsionless": self.torsionless,
            "reflexive": self.reflexive,
            "semi_gp": self.semi_gp.describe(),
            "dual_semi_gp": self.dual_semi_gp.describe(),
            "double_semi_gp": self.double_semi_gp.describe(),
            "gp": self.gp.describe(),
            "phi_rank": self.phi_rank,
            "phi_kernel_dim": self.phi_kernel_dim,
            "phi_cokernel_dim": self.phi_cokernel_dim,
            "bound": self.bound,
        }


def _combine_verdicts(verdicts, bound):
    """all-of combination: fails if any fails, holds if all hold."""
    for v in verdicts:
        if v.status == Verdict.FAILS:
            return Verdict.fails(v.witness)
    if all(v.status == Verdict.HOLDS for v in verdicts):
        return Verdict.holds([v.certificate for v in verdicts])
    return Verdict.unknown(bound)


def classify(m, bound=6, seed=0):
    """Torsionless/reflexive (exact) and semi-GP structure (bounded) of m."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    phi = canonical_map(m)
    torsionless = phi.kernel_dim() == 0
    reflexive = torsionless and phi.is_surjective()
    semi = is_semi_gp(m, bound, seed=seed)
    dual_semi = is_semi_gp(a_dual(m).dual, bound, seed=seed)
    double = _combine_verdicts([semi, dual_semi], bound)
    if not reflexive:
        gp = Verdict.fails({"reason": "not reflexive",
                            "phi_kernel_dim": phi.kernel_dim(),
                            "phi_cokernel_dim": phi.cokernel_dim()})
    elif double.status == Verdict.FAILS:
        gp = Verdict.fails(double.witness)
    elif double.status == Verdict.HOLDS:
        gp = Verdict.holds({"reflexive": True, "double_semi_gp": double.certificate})
    else:
        gp = Verdict.unknown(bound)
    return ClassificationReport(
        module=m,
        torsionless=torsionless,
        reflexive=reflexive,
        semi_gp=semi,
        dual_semi_gp=dual_semi,
        double_semi_gp=double,
        gp=gp,
        phi_rank=phi.rank(),
        phi_kernel_dim=phi.kernel_dim(),
        phi_cokernel_dim=phi.cokernel_dim(),
        bound=bound,
    )


class ApproximationData:
    __slots__ = ("map", "components", "target", "minimal")

    def __init__(self, map, components, target, minimal):
        self.map = map
        self.components = components
        self.target = target
        self.minimal = minimal


def left_add_approximation(m):
    """phi: m -> A^t whose components generate m* (minimal when the radical
    is available).  Every map m -> A then factors through phi; verified."""
    if m.side != "left":
        raise ValidationError("left_add_approximation expects a left module")
    algebra = m.algebra
    dd = a_dual(m)
    dual = dd.dual
    field = m.field
    minimal = has_minimal_covers(algebra)
    if dual.dim == 0:
        target = zero_module(algebra, "left")
        return ApproximationData(
            ModuleMap(m, target, Matrix(field, [], m.dim), check=False),
            [], target, True,
        )
    if minimal:
        gens = [g for (_e, g) in _minimal_generators(dual)]
    else:
        gens = [basis_vector(field, dual.dim, j) for j in range(dual.dim)]
    # the generators must generate m* as a module over A
    if generated_span(dual, gens).dim != dual.dim:
        raise ValidationError("approximation components fail to generate the dual")
    reg = dd.basis[0].target
    comps = [ModuleMap(m, reg, dd.map_from_coords(g), check=False) for g in gens]
    target, _incl, _pr = direct_sum([reg] * len(comps), label=f"A^{len(comps)}")
    stack = Matrix.from_blocks(field, [reg.dim] * len(comps), [m.dim],
                               {(k, 0): c.matrix for k, c in enumerate(comps)})
    phi = ModuleMap(m, target, stack, check=False)
    return ApproximationData(phi, comps, target, minimal)
