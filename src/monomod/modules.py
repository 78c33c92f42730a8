"""Left/right modules, bimodules, module maps, Hom spaces, submodules and
quotients, tensor products over an algebra, and three-valued isomorphism
testing.

A module is a family of action matrices, one per algebra basis vector.
Action laws and intertwining are verified on a generating set of the
algebra, which is equivalent to verifying on all basis pairs (the actions
are unital algebra maps) and keeps the linear systems small.
"""

import itertools
import random

from .algebra import regular_modules
from .errors import DimensionMismatch, ValidationError
from .linalg import Eliminator, Matrix, SpanAccumulator, combination, sparse_kernel
from .memo import memo, remember


class Verdict:
    """Three-valued result of a possibly-unbounded check.

    holds  -> certificate is machine-checkable evidence (iso matrix,
              periodicity pair, ...)
    fails  -> witness pins the failure (degree, kernel vector, ...)
    unknown-> bound says how far the search went
    """

    __slots__ = ("status", "certificate", "witness", "bound")

    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __init__(self, status, certificate=None, witness=None, bound=None):
        if status not in (self.HOLDS, self.FAILS, self.UNKNOWN):
            raise ValueError(f"bad verdict status {status!r}")
        if status == self.FAILS and witness is None:
            raise ValueError("a failing verdict needs a witness")
        if status == self.UNKNOWN and bound is None:
            raise ValueError("an unknown verdict needs its bound")
        self.status = status
        self.certificate = certificate
        self.witness = witness
        self.bound = bound

    @classmethod
    def holds(cls, certificate=None):
        return cls(cls.HOLDS, certificate=certificate)

    @classmethod
    def fails(cls, witness):
        return cls(cls.FAILS, witness=witness)

    @classmethod
    def unknown(cls, bound):
        return cls(cls.UNKNOWN, bound=bound)

    @property
    def definite(self):
        return self.status != self.UNKNOWN

    def __bool__(self):
        raise TypeError("Verdict is three-valued; test .status explicitly")

    def describe(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = _json_safe(self.witness)
        if self.bound is not None:
            out["bound"] = self.bound
        if self.certificate is not None:
            out["certificate"] = _json_safe(self.certificate)
        return out

    def __repr__(self):
        extra = ""
        if self.status == self.FAILS:
            extra = f" witness={self.witness!r}"
        elif self.status == self.UNKNOWN:
            extra = f" bound={self.bound}"
        return f"Verdict({self.status}{extra})"


def _json_safe(obj):
    if isinstance(obj, Matrix):
        render = obj.field.render
        return {"rows": obj.nrows, "cols": obj.ncols,
                "entries": [[r, c, render(x)] for r, c, x in obj.entries()]}
    if isinstance(obj, ModuleMap):
        return _json_safe(obj.matrix)
    if isinstance(obj, Verdict):
        return obj.describe()
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if hasattr(obj, "numerator") and hasattr(obj, "denominator") and not isinstance(obj, int):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    return obj


class Module:
    """A left or right module given by one action matrix per basis vector."""

    def __init__(self, algebra, side, dim, actions, label=""):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.side = side
        self.dim = dim
        self.actions = tuple(actions)
        self.label = label
        self._cache = {}
        if len(self.actions) != algebra.dim:
            raise DimensionMismatch("need one action matrix per algebra basis vector")
        for a in self.actions:
            if a.nrows != dim or a.ncols != dim or a.field != algebra.field:
                raise DimensionMismatch("action matrices must be dim x dim over the ground field")

    @property
    def field(self):
        return self.algebra.field

    def action(self, i):
        return self.actions[i]

    def action_of_vector(self, vec):
        """Sum of c * action over the nonzero coordinates c of vec, a
        coordinate sequence or a {basis index: c} map."""
        return combination(self.field, vec, self.actions, self.dim, self.dim)

    def __repr__(self):
        name = self.label or "Module"
        return f"{name}({self.side}, dim={self.dim}, over {self.algebra!r})"


def validate_module(actions, side, algebra, label=""):
    """Check the action laws exhaustively (generator pairs x basis) and
    return a Module.  Raises ValidationError with a witness pair."""
    actions = list(actions)
    if len(actions) != algebra.dim:
        raise ValidationError(
            f"expected {algebra.dim} action matrices, got {len(actions)}"
        )
    if actions:
        d = actions[0].nrows
        for a in actions:
            if a.nrows != a.ncols or a.nrows != d:
                raise ValidationError("action matrices must be square of equal size")
            if a.field != algebra.field:
                raise ValidationError("action matrices over the wrong field")
        dim = d
    else:
        dim = 0
    m = Module(algebra, side, dim, actions, label=label)
    ident = m.action_of_vector(algebra.unit)
    if not ident.is_identity():
        raise ValidationError("action of the unit is not the identity")
    products = algebra.left_matrix if side == "left" else algebra.right_matrix
    for g in algebra.generators():
        rho_g = m.actions[g]
        # column i is b_g * b_i on the left, b_i * b_g on the right
        prods = products(g)
        for i, prod in enumerate(prods.sparse_columns()):
            # b_g * b_i is zero for most pairs in a radical: no zero
            # combination is built to compare with
            lhs = rho_g * m.actions[i]
            if not (lhs == m.action_of_vector(prod) if prod else lhs.is_zero()):
                raise ValidationError(
                    f"action law fails at pair "
                    f"({algebra.basis_labels[g]}, {algebra.basis_labels[i]})",
                    witness=(g, i),
                )
    return m


def zero_module(algebra, side="left"):
    return Module(
        algebra, side, 0,
        [Matrix(algebra.field, [], 0) for _ in range(algebra.dim)],
        label="0",
    )


class ModuleMap:
    """A homomorphism source -> target as a (target.dim x source.dim) matrix."""

    def __init__(self, source, target, matrix, check=True):
        if source.algebra is not target.algebra or source.side != target.side:
            raise DimensionMismatch("source and target must share algebra and side")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise DimensionMismatch(
                f"map matrix must be {target.dim}x{source.dim}, got {matrix.nrows}x{matrix.ncols}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            self.verify()

    def verify(self):
        for g in self.source.algebra.generators():
            if self.matrix * self.source.actions[g] != self.target.actions[g] * self.matrix:
                raise ValidationError(
                    f"map does not intertwine basis element "
                    f"{self.source.algebra.basis_labels[g]}",
                    witness=g,
                )
        return True

    def intertwines_fully(self):
        """Exhaustive per-basis check (tests use this on small instances)."""
        return all(
            self.matrix * self.source.actions[i] == self.target.actions[i] * self.matrix
            for i in range(self.source.algebra.dim)
        )

    @classmethod
    def identity(cls, m):
        return cls(m, m, Matrix.identity(m.field, m.dim), check=False)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, Matrix.zero(source.field, target.dim, source.dim), check=False)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise DimensionMismatch("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix * other.matrix, check=False)

    def __add__(self, other):
        return ModuleMap(self.source, self.target, self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        return ModuleMap(self.source, self.target, self.matrix - other.matrix, check=False)

    def rank(self):
        return self.matrix.rank()

    def kernel_dim(self):
        return self.source.dim - self.matrix.rank()

    def cokernel_dim(self):
        return self.target.dim - self.matrix.rank()

    def is_injective(self):
        return self.matrix.rank() == self.source.dim

    def is_surjective(self):
        return self.matrix.rank() == self.target.dim

    def is_isomorphism_map(self):
        return self.source.dim == self.target.dim and self.is_injective()

    def __repr__(self):
        return f"ModuleMap({self.source.label or '?'} -> {self.target.label or '?'}, rank {self.rank()})"


# ---------------------------------------------------------------------------
# sub/quotient machinery


def submodule_generated(m, vectors, label=""):
    """Smallest submodule containing the vectors; returns (sub, inclusion).

    One pass suffices: span{rho(b_i) v} is already action-invariant because
    the action matrices realize an algebra map.
    """
    basis = generated_span(m, vectors).basis_columns_matrix()
    return module_on_invariant_columns(m, basis, label=label)


def generated_span(m, vectors):
    """The SpanAccumulator of span{rho(b_i) v}, the submodule the vectors
    generate (the unit is a combination of the basis b_i)."""
    acc = SpanAccumulator(m.field, m.dim)
    for v in vectors:
        for act in m.actions:
            acc.add(act.apply(v))
    return acc


def module_on_invariant_columns(m, basis_matrix, label=""):
    """Module structure on an action-invariant column space; (sub, inclusion)."""
    solver = Eliminator(basis_matrix)
    acts = []
    for i in range(m.algebra.dim):
        img = m.actions[i] * basis_matrix
        X = solver.solve_matrix(img)
        if X is None:
            raise ValidationError("subspace is not action-invariant", witness=i)
        acts.append(X)
    sub = Module(m.algebra, m.side, basis_matrix.ncols, acts, label=label)
    incl = ModuleMap(sub, m, basis_matrix, check=False)
    return sub, incl


def quotient_module(m, subspace_columns, label="", accumulator=None):
    """(quotient, projection, section_matrix) of m by an invariant subspace,
    given by its columns or, when subspace_columns is None, as a
    SpanAccumulator."""
    if accumulator is None:
        accumulator = SpanAccumulator(m.field, m.dim)
        accumulator.add_columns(subspace_columns)
    Q = accumulator.projection_matrix()
    S = accumulator.section_matrix()
    acts = [Q * (m.actions[i] * S) for i in range(m.algebra.dim)]
    quot = Module(m.algebra, m.side, Q.nrows, acts, label=label)
    proj = ModuleMap(m, quot, Q, check=False)
    return quot, proj, S


def radical_image(m):
    """The span of J.m, J the radical of the algebra, as a SpanAccumulator.
    The nonzero columns of each radical element's action are added, in
    column order: most columns of a radical action are zero.  Its dimension
    is kept as radical_image_dim(m)."""
    acc = SpanAccumulator(m.field, m.dim)
    for jv in m.algebra.radical_basis():
        for col in m.action_of_vector(jv).sparse_columns():
            if col:
                acc.add(col)
    remember(m, radical_image_dim, acc.dim)
    return acc


@memo
def radical_image_dim(m):
    """dim J.m, computed once per module."""
    return radical_image(m).dim


def idempotent_slice(m, e):
    """(basis matrix, Eliminator) of the slice e.m of m for an idempotent e."""
    basis = m.action_of_vector(e).column_space_matrix()
    return basis, Eliminator(basis)


def idempotent_slices(m, idempotents):
    """The slices e.m of m, one per idempotent; they must decompose m."""
    slices = [idempotent_slice(m, e) for e in idempotents]
    if sum(basis.ncols for basis, _ in slices) != m.dim:
        raise ValidationError("idempotents do not decompose the module")
    return slices


def restricted_action(m, vec, source, target, message):
    """Matrix of v -> vec.v from the slice source to the slice target, in
    their bases; raises ValidationError(message) if the image leaves target."""
    sol = target[1].solve_matrix(m.action_of_vector(vec) * source[0])
    if sol is None:
        raise ValidationError(message)
    return sol


def cokernel(f):
    """(Coker f, projection) of a ModuleMap."""
    coker, proj, _ = quotient_module(f.target, f.matrix, label=f"coker({f.source.label})")
    return coker, proj


def direct_sum(mods, label=""):
    """(sum, inclusions, projections) of finitely many same-side modules."""
    if not mods:
        raise ValueError("direct_sum of nothing")
    algebra, side = mods[0].algebra, mods[0].side
    for m in mods:
        if m.algebra is not algebra or m.side != side:
            raise DimensionMismatch("direct sum needs one algebra and side")
    field = algebra.field
    acts = [
        Matrix.block_diag(field, [m.actions[i] for m in mods])
        for i in range(algebra.dim)
    ]
    dims = [m.dim for m in mods]
    out = Module(algebra, side, sum(dims), acts,
                 label=label or "(+)".join(m.label for m in mods))
    inclusions, projections = [], []
    for k, m in enumerate(mods):
        eye = Matrix.identity(field, m.dim)
        inc = Matrix.from_blocks(field, dims, [m.dim], {(k, 0): eye})
        pr = Matrix.from_blocks(field, [m.dim], dims, {(0, k): eye})
        inclusions.append(ModuleMap(m, out, inc, check=False))
        projections.append(ModuleMap(out, m, pr, check=False))
    return out, inclusions, projections


# ---------------------------------------------------------------------------
# Hom spaces


def hom_space(m, n):
    """A basis of Hom(m, n) as ModuleMaps (deterministic RREF basis).

    Solves the intertwiner system over a generating set of the algebra on
    the support of the actions (hom_space_direct: only constraints that can
    be nonzero are built, single-entry ones force their variable to 0, and
    the rest go to sparse row elimination) for every pair of modules; the
    tests check it against a dense solve of the whole system and against
    the projective-presentation route homology.hom_space_via_presentation.
    """
    _hom_compatible(m, n)
    if m.dim == 0 or n.dim == 0:
        return []
    return [ModuleMap(m, n, F, check=False) for F in hom_space_direct(m, n)]


def _hom_compatible(m, n):
    if m.algebra is not n.algebra:
        raise DimensionMismatch("Hom needs modules over the same algebra")
    if m.side != n.side:
        raise DimensionMismatch("Hom needs modules on the same side")


def hom_space_direct(m, n):
    """The RREF basis, as row-major vecs, of the solutions F (dn x dm) of
    rho_n(g) F = F rho_m(g) over the generators g of the algebra.

    The unknowns are numbered from the last vec entry: F[s][c] is variable
    last - (s*dm + c).  The constraint at (r, c) is
    sum_s n[r][s] F[s][c] - sum_s F[r][s] m[s][c] = 0, with n = rho_n(g) and
    m = rho_m(g).  It is built only when row r of n or column c of m has a
    nonzero, since otherwise it reads 0 = 0, and it has one entry per such
    nonzero.  The two sums meet only at F[r][c], whose entry
    n[r][r] - m[c][c] is dropped when it cancels, mod p over F_p.

    A constraint with a single entry says that its variable is 0.  These
    forced variables are collected and their rows never reach elimination;
    the other rows, with the forced variables deleted, go to
    linalg.sparse_kernel over the unforced variables renumbered in order.

    The result is still the RREF basis of the whole system.  The row space
    holds the unit vector of every forced variable, so each forced variable
    is a pivot of the whole system's RREF with that unit row, and the other
    RREF rows vanish at the forced variables: they are the unique RREF of
    the remaining rows on the unforced variables, whose order is kept.
    sparse_kernel's kernel vector for a free variable is 1 there and 0 at
    the other free variables, with its other entries at smaller variables;
    with 0 at the forced variables and read in reverse it is the RREF
    basis."""
    field = m.field
    dm, dn = m.dim, n.dim
    last = dm * dn - 1
    sub = field.sub
    forced, rows = set(), []
    for g in m.algebra.generators():
        m_cols = m.actions[g].sparse_columns()
        live_cols = [c for c in range(dm) if m_cols[c]]
        for r, n_row in enumerate(n.actions[g].sparse_rows):
            for c in (range(dm) if n_row else live_cols):
                m_col = m_cols[c]
                if len(n_row) + len(m_col) == 1:
                    # one entry, which nothing cancels: its variable is 0
                    (s, _a), = (n_row or m_col).items()
                    forced.add(last - (s * dm + c) if n_row else last - (r * dm + s))
                    continue
                row = {last - (s * dm + c): a for s, a in n_row.items()}
                for s, b in m_col.items():
                    j = last - (r * dm + s)
                    x = sub(row.get(j, 0), b)
                    if x:
                        row[j] = x
                    else:  # n[r][r] - m[c][c] cancels
                        del row[j]
                if len(row) == 1:
                    forced.update(row)
                elif row:
                    rows.append(row)
    # the unforced variables, renumbered in order
    unforced = [j for j in range(dm * dn) if j not in forced]
    place = {j: k for k, j in enumerate(unforced)}
    reduced = ({place[j]: x for j, x in row.items() if j in place} for row in rows)
    K = sparse_kernel(field, len(unforced), (row for row in reduced if row))
    mats = []
    for col in reversed(K.sparse_columns()):
        F = [{} for _ in range(dm)]  # the columns of the map
        for k, x in col.items():
            r, c = divmod(last - unforced[k], dm)
            F[c][r] = x
        mats.append(Matrix.from_columns(field, F, dn))
    return mats


# ---------------------------------------------------------------------------
# isomorphism testing


def is_isomorphic(m, n, seed=0, trials=64):
    """Three-valued isomorphism test.

    holds -> certificate is an explicit invertible intertwiner (ModuleMap).
    fails -> witness is a rank argument (dimension or Hom-space obstruction),
             exhaustion over a small prime field, or "composites lie in the
             trace radical of End" (see below).
    unknown -> randomized search over an infinite field gave up after
               `trials` seeded attempts.

    Before the random search, over Q or F_p with p > d = dim m, the test
    forms every composite g.f of a basis map f: m -> n and a basis map
    g: n -> m.  If tr(g.f.e) = 0 for every basis element e of E = End(m),
    all composites lie in the subspace I = {x in E : tr(xy) = 0 for all y
    in E}.  Each z in I has tr(z^k) = tr(z.z^(k-1)) = 0 for k = 1..d, so by
    Newton's identities (char 0 or p > d) z is nilpotent.  Every g.f is a
    combination of the basis composites, so none is invertible and m is not
    isomorphic to n.  The refutation never fires on isomorphic modules, where
    1 = f^-1.f lies in the span and tr(1.1) = d is nonzero.
    """
    _hom_compatible(m, n)
    if m.dim != n.dim:
        return Verdict.fails({"reason": "dimension mismatch", "dims": (m.dim, n.dim)})
    if m.dim == 0:
        return Verdict.holds(ModuleMap(m, n, Matrix(m.field, [], 0), check=False))
    # conjugation-invariant rank arguments, cheap definite refutations
    for g in m.algebra.generators():
        rm, rn = m.actions[g].rank(), n.actions[g].rank()
        if rm != rn:
            return Verdict.fails(
                {"reason": "action rank mismatch",
                 "generator": m.algebra.basis_labels[g], "ranks": (rm, rn)}
            )
    if m.algebra.has_radical():
        dims = (radical_image_dim(m), radical_image_dim(n))
        if dims[0] != dims[1]:
            return Verdict.fails(
                {"reason": "radical-image dimension mismatch", "dims": dims}
            )
    H = hom_space(m, n)
    Hback = hom_space(n, m)
    if not H or not Hback:
        return Verdict.fails({"reason": "zero Hom space", "dims": (len(H), len(Hback))})
    if len(H) != len(Hback):
        return Verdict.fails(
            {"reason": "Hom dimensions differ", "dims": (len(H), len(Hback))}
        )
    field = m.field
    d = m.dim
    H_mats = [h.matrix for h in H]

    def attempt(coeffs):
        if not any(coeffs):
            return None
        F = combination(field, coeffs, H_mats, d, d)
        if F.rank() == d:
            return ModuleMap(m, n, F, check=False)
        return None

    # deterministic cheap guesses first
    for h in H:
        if h.matrix.rank() == d:
            return Verdict.holds(ModuleMap(m, n, h.matrix, check=False))
    guess = attempt([field.one] * len(H))
    if guess is not None:
        return Verdict.holds(guess)

    if field.elements is not None and len(field.elements) ** len(H) <= 10_000:
        for coeffs in itertools.product(field.elements, repeat=len(H)):
            got = attempt(list(coeffs))
            if got is not None:
                return Verdict.holds(got)
        return Verdict.fails(
            {"reason": "exhaustive search over F_p found no invertible combination"}
        )

    if field.characteristic == 0 or field.characteristic > d:
        E = hom_space_direct(m, m)
        if _composites_in_trace_radical(field, H, Hback, E):
            return Verdict.fails(
                {"reason": "composites lie in the trace radical of End",
                 "dims": (len(H), len(Hback), len(E))}
            )

    rng = random.Random(seed)
    for _ in range(trials):
        got = attempt([field.random_element(rng) for _ in H])
        if got is not None:
            return Verdict.holds(got)
    return Verdict.unknown(trials)


def _composites_in_trace_radical(field, H, Hback, E):
    """Whether tr(g.f.e) = 0 for every g in Hback, f in H and e in E: every
    composite g.f then lies in I = {x in E : tr(xy) = 0 for all y in E}."""
    add, mul, zero = field.add, field.mul, field.zero
    # tr(C.e) = sum over (i, j) of C[i][j] * e[j][i], row i of C against
    # column i of e
    e_columns = [e.sparse_columns() for e in E]
    for g in Hback:
        for f in H:
            C = g.matrix * f.matrix
            entries = [(i, j, x) for i, row in enumerate(C.sparse_rows) for j, x in row.items()]
            for ecols in e_columns:
                s = zero
                for i, j, x in entries:
                    y = ecols[i].get(j)
                    if y:
                        s = add(s, mul(x, y))
                if s:
                    return False
    return True


# ---------------------------------------------------------------------------
# k-duality and projectives/simples


def k_dual(m):
    """The k-dual D(m): transposed actions on the dual coordinates, side
    flipped.  D(D(m)) has literally the same matrices as m."""
    side = "right" if m.side == "left" else "left"
    return Module(
        m.algebra, side, m.dim,
        [a.transpose() for a in m.actions],
        label=f"D({m.label})" if m.label else "D",
    )


def simples_and_projectives(A, side="left"):
    """Per idempotent e: the projective Ae (or eA) and the simple top Ae/Je."""
    if A.idempotents is None:
        raise ValidationError("simples_and_projectives needs idempotents")
    reg = regular_modules(A)[0 if side == "left" else 1]
    projectives = []
    simples = []
    for idx, e in enumerate(A.idempotents):
        P, _incl = submodule_generated(reg, [list(e)], label=f"P({idx})")
        S, _proj, _sec = quotient_module(P, None, label=f"S({idx})",
                                         accumulator=radical_image(P))
        projectives.append((P, tuple(e)))
        simples.append(S)
    return {"projectives": projectives, "simples": simples}


# ---------------------------------------------------------------------------
# bimodules and tensor products


class Bimodule:
    """An (A, B)-bimodule: commuting left-A and right-B action families."""

    def __init__(self, left_algebra, right_algebra, dim, left_actions, right_actions, label=""):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_actions = tuple(left_actions)
        self.right_actions = tuple(right_actions)
        self.label = label
        self._cache = {}

    @property
    def field(self):
        return self.left_algebra.field

    @memo
    def as_left_module(self):
        return Module(self.left_algebra, "left", self.dim, self.left_actions,
                      label=self.label)

    @memo
    def as_right_module(self):
        return Module(self.right_algebra, "right", self.dim, self.right_actions,
                      label=self.label)

    def __repr__(self):
        return f"Bimodule({self.label or '?'}, dim={self.dim})"


def validate_bimodule(left_algebra, right_algebra, left_actions, right_actions, label=""):
    left = validate_module(left_actions, "left", left_algebra, label=label)
    right = validate_module(right_actions, "right", right_algebra, label=label)
    if left.dim != right.dim:
        raise ValidationError("left and right action families disagree on dimension")
    for g in left_algebra.generators():
        for h in right_algebra.generators():
            if left_actions[g] * right_actions[h] != right_actions[h] * left_actions[g]:
                raise ValidationError(
                    "left and right actions do not commute", witness=(g, h)
                )
    bm = Bimodule(left_algebra, right_algebra, left.dim, left_actions, right_actions,
                  label=label)
    return bm


def regular_bimodule(A):
    """A as an A-A-bimodule (left and right multiplications)."""
    return Bimodule(
        A, A, A.dim,
        [A.left_matrix(i) for i in range(A.dim)],
        [A.right_matrix(i) for i in range(A.dim)],
        label=(A.label or "A"),
    )


class TensorResult:
    """u (x)_B y on explicit coordinates.

    pure_matrix maps the pure tensor u_i (x) y_j, column i * dim y + j, to
    its class, and section is a right inverse of it; module is the induced
    left module when u was a bimodule.  tensor_over realizes u (x)_B y as a
    quotient of u (x)_k y.
    """

    __slots__ = ("dim", "pure_matrix", "section", "module")

    def __init__(self, dim, pure_matrix, section, module):
        self.dim = dim
        self.pure_matrix = pure_matrix
        self.section = section
        self.module = module


def tensor_over(u, y, validate=True):
    """u (x)_B y for u a right B-module or an (A,B)-bimodule, y a left B-module.

    Realized as the cokernel of the relation map
    (u, b, v) |-> u.b (x) v  -  u (x) b.v   over a generating set of B
    (relations for products are consequences of relations for generators).
    """
    if isinstance(u, Bimodule):
        B = u.right_algebra
        right_acts = u.right_actions
        left_acts = u.left_actions
        A = u.left_algebra
    else:
        if u.side != "right":
            raise DimensionMismatch("first tensor factor must be a right module")
        B = u.algebra
        right_acts = u.actions
        left_acts = None
        A = None
    if y.algebra is not B or y.side != "left":
        raise DimensionMismatch("second tensor factor must be a left module over the same algebra")
    field = B.field
    du, dy = u.dim, y.dim
    N = du * dy
    acc = SpanAccumulator(field, N)
    for g in B.generators():
        Ru = right_acts[g]
        Ly = y.actions[g]
        for i in range(du):
            ucol = Ru.column(i)
            for j in range(dy):
                vcol = Ly.column(j)
                vec = {s * dy + j: a for s, a in enumerate(ucol) if a}
                for t, b in enumerate(vcol):
                    if b:
                        idx = i * dy + t
                        vec[idx] = field.sub(vec.get(idx, field.zero), b)
                acc.add(vec)
    Q = acc.projection_matrix()
    S = acc.section_matrix()
    dim = Q.nrows
    module = None
    if left_acts is not None:
        eye = Matrix.identity(field, dy)
        acts = [Q * (left_acts[i].kronecker(eye) * S) for i in range(A.dim)]
        if validate:
            module = validate_module(acts, "left", A, label=f"{u.label}(x){y.label}")
        else:
            module = Module(A, "left", dim, acts, label=f"{u.label}(x){y.label}")
    return TensorResult(dim, Q, S, module)
