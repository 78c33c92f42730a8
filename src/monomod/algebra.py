"""Finite-dimensional associative unital algebras by structure constants.

An AlgebraPresentation is raw data; validate_algebra() checks associativity
exhaustively over basis triples, the unit law, and the optional idempotent
set, and returns a sealed Algebra handle.  Radicals come from the trace
bilinear form (char 0 or char p > dim), or from a declared radical basis
which is then verified.
"""

from .errors import DimensionMismatch, ValidationError
from .linalg import Matrix, SpanAccumulator, basis_vector, combination, sparse_kernel
from .memo import memo, remember


class AlgebraPresentation:
    """Raw structure-constant data for an algebra.

    struct_consts: iterable of (i, j, k, scalar) meaning b_i * b_j has
    coefficient scalar on b_k.  Omitted products are zero.
    """

    def __init__(self, field, dim, basis_labels, unit, struct_consts,
                 idempotents=None, radical_basis=None):
        self.field = field
        self.dim = dim
        self.basis_labels = list(basis_labels)
        if len(self.basis_labels) != dim:
            raise ValidationError("basis_labels length != dim")
        self.unit = [field.of(x) for x in unit]
        if len(self.unit) != dim:
            raise ValidationError("unit vector length != dim")
        table = {}
        for (i, j, k, c) in struct_consts:
            c = field.of(c)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValidationError(f"struct const index out of range: {(i, j, k)}")
            key = (i, j)
            table.setdefault(key, {})
            table[key][k] = field.add(table[key].get(k, field.zero), c)
        self.table = {
            key: tuple((k, c) for k, c in sorted(kc.items()) if c)
            for key, kc in table.items()
        }
        self.idempotents = None
        if idempotents is not None:
            self.idempotents = [[field.of(x) for x in e] for e in idempotents]
        self.radical_basis = None
        if radical_basis is not None:
            self.radical_basis = [[field.of(x) for x in v] for v in radical_basis]
            if any(len(v) != dim for v in self.radical_basis):
                raise ValidationError("radical vector length != dim")


class Element:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        if len(coeffs) != algebra.dim:
            raise DimensionMismatch("coefficient vector length != algebra dim")
        self.algebra = algebra
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs))

    def __add__(self, other):
        self._check(other)
        add = self.algebra.field.add
        return Element(self.algebra, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        sub = self.algebra.field.sub
        return Element(self.algebra, [sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return NotImplemented

    def scale(self, c):
        mul = self.algebra.field.mul
        c = self.algebra.field.of(c)
        return Element(self.algebra, [mul(c, a) for a in self.coeffs])

    def is_zero(self):
        return not any(self.coeffs)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise DimensionMismatch("elements of different algebras")

    def __repr__(self):
        field = self.algebra.field
        terms = [
            f"{field.render(c)}*{lbl}"
            for c, lbl in zip(self.coeffs, self.algebra.basis_labels)
            if c
        ]
        return " + ".join(terms) if terms else "0"


class Algebra:
    """Sealed handle produced by validate_algebra; immutable after that."""

    def __init__(self, presentation):
        p = presentation
        self.field = p.field
        self.dim = p.dim
        self.basis_labels = list(p.basis_labels)
        self.unit = tuple(p.unit)
        self.table = p.table
        self.idempotents = (
            [tuple(e) for e in p.idempotents] if p.idempotents is not None else None
        )
        self._declared_radical = p.radical_basis
        self._cache = {}  # derived data, kept by memo
        self.label = ""

    # -- structure-constant products ------------------------------------

    def basis_product(self, i, j):
        """b_i * b_j as a sparse tuple of (k, coeff)."""
        return self.table.get((i, j), ())

    def product_vectors(self, u, v):
        """Bilinear extension of the table on two coefficient vectors."""
        field = self.field
        out = {}
        table = self.table
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                terms = table.get((i, j))
                if not terms:
                    continue
                ab = field.mul(a, b)
                for k, c in terms:
                    out[k] = field.add(out.get(k, field.zero), field.mul(ab, c))
        vec = [field.zero] * self.dim
        for k, c in out.items():
            vec[k] = c
        return vec

    def element(self, coeffs):
        return Element(self, [self.field.of(c) for c in coeffs])

    def basis_element(self, i):
        return Element(self, basis_vector(self.field, self.dim, i))

    def one(self):
        return Element(self, list(self.unit))

    def element_by_label(self, label):
        return self.basis_element(self.basis_labels.index(label))

    @memo
    def left_matrix(self, i):
        """L_{b_i}: columns are b_i * b_j."""
        return self._product_matrix(lambda j: self.basis_product(i, j))

    @memo
    def right_matrix(self, i):
        """R_{b_i}: columns are b_j * b_i."""
        return self._product_matrix(lambda j: self.basis_product(j, i))

    def _product_matrix(self, column_terms):
        """The matrix whose column j has the entries column_terms(j), a
        sparse tuple of (k, coeff)."""
        z = self.field.zero
        rows = [[z] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in column_terms(j):
                rows[k][j] = c
        return Matrix(self.field, rows, self.dim)

    def left_multiplication(self, vec):
        """L_v for a coefficient vector v."""
        mats = [self.left_matrix(i) for i in range(self.dim)]
        return combination(self.field, vec, mats, self.dim, self.dim)

    # -- generating set ---------------------------------------------------

    @memo
    def generators(self):
        """Indices of a small unital generating set (greedy, deterministic).

        Action laws and intertwining conditions checked on these indices
        extend to the whole algebra, which keeps Hom systems small.
        """
        field = self.field
        span_rows = Matrix(field, [self.unit], self.dim)
        gens = []

        def closure(rows_matrix):
            # span of the subalgebra generated by the rows (plus unit already in)
            current = rows_matrix
            while True:
                basis = current.rref()
                basis = basis.submatrix(range(basis.rank()), range(self.dim))
                vecs = [list(r) for r in basis.rows]
                prods = [self.product_vectors(u, v) for u in vecs for v in vecs]
                stacked = Matrix(field, vecs + prods, self.dim)
                if stacked.rank() == basis.nrows:
                    return basis
                current = stacked

        span = closure(span_rows)
        for i in range(self.dim):
            if span.nrows == self.dim:
                break
            e = basis_vector(field, self.dim, i)
            if Matrix(field, list(span.rows) + [e], self.dim).rank() > span.nrows:
                gens.append(i)
                span = closure(Matrix(field, list(span.rows) + [e], self.dim))
        return tuple(gens)

    # -- opposite algebra --------------------------------------------------

    @memo
    def opposite(self):
        """The opposite algebra, whose own opposite is self."""
        consts = []
        for (i, j), terms in self.table.items():
            for k, c in terms:
                consts.append((j, i, k, c))
        pres = AlgebraPresentation(
            self.field,
            self.dim,
            self.basis_labels,
            list(self.unit),
            consts,
            idempotents=[list(e) for e in self.idempotents]
            if self.idempotents is not None
            else None,
            radical_basis=[list(v) for v in self._declared_radical]
            if self._declared_radical is not None
            else None,
        )
        op = Algebra(pres)
        op.label = (self.label + "^op") if self.label else "op"
        remember(op, Algebra.opposite, self)
        return op

    # -- radical ------------------------------------------------------------

    @memo
    def has_radical(self):
        try:
            self.radical_basis()
            return True
        except ValidationError:
            return False

    @memo
    def radical_basis(self):
        """Rows spanning J(A), canonical (RREF) basis."""
        if self._declared_radical is not None:
            return self._verify_declared_radical()
        return self._radical_by_trace_form()

    def _trace_form_kernel(self, table_dim, trace_of_basis, product):
        field = self.field
        rows = []
        for i in range(table_dim):
            row = [field.zero] * table_dim
            for j in range(table_dim):
                s = field.zero
                for k, c in product(i, j):
                    t = trace_of_basis[k]
                    if t and c:
                        s = field.add(s, field.mul(c, t))
                row[j] = s
            rows.append(row)
        G = Matrix(field, rows, table_dim)
        K = G.kernel_matrix()
        return K

    def _characteristic_ok(self, dim):
        ch = self.field.characteristic
        return ch == 0 or ch > dim

    def _radical_by_trace_form(self):
        if not self._characteristic_ok(self.dim):
            raise ValidationError(
                "unsupported-characteristic: trace-form radical needs char 0 or "
                f"char p > dim; declare radical_basis explicitly (char {self.field.characteristic}, dim {self.dim})"
            )
        traces = [self.left_matrix(i).trace() for i in range(self.dim)]
        K = self._trace_form_kernel(self.dim, traces, self.basis_product)
        vecs = [list(K.column(j)) for j in range(K.ncols)]
        rad = Matrix(self.field, vecs, self.dim).rref() if vecs else Matrix(
            self.field, [], self.dim
        )
        rad = rad.submatrix(range(rad.rank()), range(self.dim))
        self._check_radical_nilpotent([list(r) for r in rad.rows])
        return [tuple(r) for r in rad.rows]

    def _check_radical_nilpotent(self, rad_vectors):
        # J^(dim) = 0, checked exhaustively by iterating spans of products
        current = rad_vectors
        for _ in range(self.dim + 1):
            if not current:
                return
            prods = [self.product_vectors(u, v) for u in rad_vectors for v in current]
            m = Matrix(self.field, prods, self.dim)
            r = m.rref().submatrix(range(m.rank()), range(self.dim))
            nxt = [list(row) for row in r.rows]
            if len(nxt) >= len(current):
                raise ValidationError("radical candidate is not nilpotent")
            current = nxt
        raise ValidationError("radical candidate is not nilpotent")

    def _verify_declared_radical(self):
        field = self.field
        J = SpanAccumulator(field, self.dim)
        for v in self._declared_radical:
            J.add(v)
        jvecs = [list(r) for r in J.rows]
        for i in range(self.dim):
            e = basis_vector(field, self.dim, i)
            for jv in jvecs:
                if not J.contains(self.product_vectors(e, jv)) or not J.contains(
                    self.product_vectors(jv, e)
                ):
                    raise ValidationError(
                        "declared radical is not a two-sided ideal",
                        witness=(i, jv),
                    )
        self._check_radical_nilpotent(jvecs)
        self._check_semisimple_quotient(J)
        return [tuple(v) for v in jvecs]

    def _check_semisimple_quotient(self, J):
        # trace form of A/J must be nondegenerate -- only checkable for
        # char 0 or char p > dim(A/J)
        field = self.field
        qdim = self.dim - J.dim
        if not self._characteristic_ok(qdim):
            return  # declared radical accepted with the unverifiable part skipped
        comp = J.complement

        def qprod(i, j):
            ei = basis_vector(field, self.dim, comp[i])
            ej = basis_vector(field, self.dim, comp[j])
            vec = J.project(self.product_vectors(ei, ej))
            return [(k, c) for k, c in enumerate(vec) if c]

        # quotient left-multiplication traces
        traces = []
        for k in range(qdim):
            t = field.zero
            for j in range(qdim):
                for kk, c in qprod(k, j):
                    if kk == j:
                        t = field.add(t, c)
            traces.append(t)
        K = self._trace_form_kernel(qdim, traces, qprod)
        if K.ncols != 0:
            raise ValidationError(
                "declared radical too small: quotient trace form degenerate"
            )

    def __repr__(self):
        name = self.label or "Algebra"
        return f"{name}(dim={self.dim}, field={self.field})"


def validate_algebra(presentation, label=""):
    """Exhaustively verify a presentation and return a sealed Algebra.

    Checks associativity on all basis triples, the two-sided unit law, and
    (when given) that the idempotents are orthogonal, idempotent and sum to
    the unit.  Failures carry a witness.
    """
    A = Algebra(presentation)
    A.label = label
    field = A.field
    dim = A.dim

    def sparse_eq(d1, d2):
        keys = set(d1) | set(d2)
        return all(d1.get(k, field.zero) == d2.get(k, field.zero) for k in keys)

    table = A.table
    # associativity: (b_i b_j) b_l == b_i (b_j b_l)
    for i in range(dim):
        for j in range(dim):
            pij = table.get((i, j), ())
            for l in range(dim):
                lhs = {}
                for k, c in pij:
                    for k2, c2 in table.get((k, l), ()):
                        lhs[k2] = field.add(lhs.get(k2, field.zero), field.mul(c, c2))
                rhs = {}
                for k, c in table.get((j, l), ()):
                    for k2, c2 in table.get((i, k), ()):
                        rhs[k2] = field.add(rhs.get(k2, field.zero), field.mul(c, c2))
                if not sparse_eq(lhs, rhs):
                    raise ValidationError(
                        f"non-associative at basis triple "
                        f"({A.basis_labels[i]}, {A.basis_labels[j]}, {A.basis_labels[l]})",
                        witness=(i, j, l),
                    )
    # unit law
    for i in range(dim):
        e = basis_vector(field, dim, i)
        left = A.product_vectors(list(A.unit), e)
        right = A.product_vectors(e, list(A.unit))
        if left != e or right != e:
            raise ValidationError(
                f"unit law fails at basis element {A.basis_labels[i]}", witness=i
            )
    # idempotents
    if A.idempotents is not None:
        total = [field.zero] * dim
        for a, ea in enumerate(A.idempotents):
            sq = A.product_vectors(list(ea), list(ea))
            if list(sq) != list(ea):
                raise ValidationError(f"idempotent {a} is not idempotent", witness=a)
            for b, eb in enumerate(A.idempotents):
                if a != b:
                    p = A.product_vectors(list(ea), list(eb))
                    if any(p):
                        raise ValidationError(
                            f"idempotents {a}, {b} are not orthogonal", witness=(a, b)
                        )
            total = [field.add(x, y) for x, y in zip(total, ea)]
        if total != list(A.unit):
            raise ValidationError("idempotents do not sum to the unit")
    return A


def multiply(a, b):
    """Product of two elements of the same algebra."""
    if not isinstance(a, Element) or not isinstance(b, Element):
        raise TypeError("multiply expects Elements")
    if a.algebra is not b.algebra:
        raise DimensionMismatch("algebra mismatch")
    return Element(a.algebra, a.algebra.product_vectors(a.coeffs, b.coeffs))


@memo
def regular_modules(A):
    """(left regular module, right regular module) of A; kept on A."""
    from .modules import Module

    left = Module(
        A,
        "left",
        A.dim,
        [A.left_matrix(i) for i in range(A.dim)],
        label=(A.label or "A") + "_left_regular",
    )
    right = Module(
        A,
        "right",
        A.dim,
        [A.right_matrix(i) for i in range(A.dim)],
        label=(A.label or "A") + "_right_regular",
    )
    return left, right


def radical_and_socle(A):
    """Radical basis of A and the socle of the left regular module, the
    vectors v with J v = 0."""
    rad = A.radical_basis()
    m = regular_modules(A)[0]
    rows = (
        {j: x for j, x in enumerate(row) if x}
        for jv in rad for row in m.action_of_vector(jv).rows
    )
    socle_cols = sparse_kernel(A.field, m.dim, rows).columns()
    return {
        "radical_basis": [tuple(v) for v in rad],
        "socle_basis": socle_cols,
    }
