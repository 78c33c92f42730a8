"""Exact linear algebra over Q and prime fields.

Everything downstream (Hom spaces, resolutions, Ext/Tor) reduces to ranks,
kernels and exact solves of the matrices built here.  No floating point:
over Q an integral entry is a Python int and any other entry a
`fractions.Fraction` with denominator greater than 1; F_p entries are ints
in [0, p).

The two fields differ only in their scalars, so every matrix kernel is
written once, for both: the product (`Matrix.__mul__`), the matrix-vector
product (`Matrix.apply`), the linear combination sum c_i M_i of stored
matrices (`combination`, which is how an algebra element acts, how a Hom
space's coordinates become a map, and how path maps are summed), and the
eliminations below.  The product, `apply` and the eliminations add and
multiply raw entries with Python's operators and then call the field's
`reduce` hook on the positions they wrote, which over Q turns an integral
Fraction back into an int and over F_p takes residues mod p; `combination`
goes through the field's `add` and `mul`, which return the same forms.

There is one elimination.  `SpanAccumulator` takes vectors one at a time
and keeps a sparse reduced echelon basis of their span.  A matrix's rref,
pivot columns, rank and kernel (`Matrix.rref` and the rest), spans,
quotients by a span, kernels of streamed linear forms (`sparse_kernel`) and
the solutions of `Eliminator` (a matrix's columns fed in tagged by position;
`Matrix.inverse` solves against the identity with it) are all read off it.
"""

from fractions import Fraction

from .config import dimension_cap
from .errors import DimensionCapExceeded, DimensionMismatch, InconsistentSystem


# Miller-Rabin with these 13 bases decides primality exactly below
# _PRIME_TEST_BOUND (Sorenson and Webster, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p):
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    if p >= _PRIME_TEST_BOUND:
        raise ValueError(f"cannot decide whether {p} is prime: the primality test is exact "
                         f"only below {_PRIME_TEST_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The ground field: `QQ` (the rationals) or `GF(p)` (p prime).

    Elements are raw values.  Over Q an integral element is an int and any
    other a Fraction with denominator greater than 1, so the arithmetic of
    the mostly integral matrices downstream stays in ints; over F_p
    elements are ints in [0, p).  Both fields share the constants `zero`
    (0) and `one` (1).  A subclass supplies the scalar operations (`of`,
    `add`, `sub`, `mul`, `neg`, `inv`, `render`, `spec_string`),
    `random_element(rng)` for randomized searches, and `reduce(row,
    positions)`, which brings sums of products of elements at those
    positions of a list back to canonical elements in place.  `of` is the
    one exception to the canonical form: over Q it returns a Fraction, so a
    value a caller reads back (a parameter such as `Lambda(q).q_value`)
    divides exactly with `/`.

    `kind` ('Q' or 'Fp'), `p` (None over Q), `characteristic` and
    `elements` (None over Q, range(p) over F_p) are plain data.
    """

    __slots__ = ()

    zero = 0
    one = 1

    @classmethod
    def parse_spec(cls, text):
        """'Q' or 'F<p>', e.g. 'F7'."""
        text = text.strip()
        if text in ("Q", "QQ", "rationals"):
            return QQ
        if text.startswith("F") and text[1:].isdecimal():
            return GF(int(text[1:]))
        raise ValueError(f"cannot parse field spec {text!r}")

    def __eq__(self, other):
        return type(self) is type(other) and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return self.spec_string()


class Rationals(Field):
    """Q, with each integral result written as an int: every operation
    below but `of` returns that form, and `reduce` restores it at the
    positions a kernel wrote with raw `+` and `*`."""

    __slots__ = ()

    kind = "Q"
    p = None
    characteristic = 0
    elements = None

    def of(self, n):
        """The Fraction for an int / Fraction / string."""
        if isinstance(n, Fraction):
            return n
        if isinstance(n, (int, str)):
            return Fraction(n)
        raise TypeError(f"cannot coerce {n!r} into Q")

    def add(self, a, b):
        s = a + b
        return s.numerator if type(s) is Fraction and s.denominator == 1 else s

    def sub(self, a, b):
        s = a - b
        return s.numerator if type(s) is Fraction and s.denominator == 1 else s

    def mul(self, a, b):
        s = a * b
        return s.numerator if type(s) is Fraction and s.denominator == 1 else s

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        s = Fraction(1) / a
        return s.numerator if s.denominator == 1 else s

    def reduce(self, row, positions):
        for j in positions:
            x = row[j]
            if type(x) is Fraction and x.denominator == 1:
                row[j] = x.numerator

    def render(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def spec_string(self):
        return "Q"

    def random_element(self, rng):
        """A small integer in [-5, 5]."""
        return rng.randint(-5, 5)


class PrimeField(Field):
    __slots__ = ("p", "characteristic", "elements")

    kind = "Fp"

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"PrimeField needs a prime, got {p!r}")
        self.p = self.characteristic = p
        self.elements = range(p)

    def of(self, n):
        """Canonical element from an int / Fraction / string; a string is
        read as a Fraction, so a rational whose reduced denominator is
        divisible by p raises ZeroDivisionError however it is written."""
        p = self.p
        if isinstance(n, str):
            n = Fraction(n)
        if isinstance(n, Fraction):
            if n.denominator % p == 0:
                raise ZeroDivisionError(f"{n} has no image in F_{p}")
            return n.numerator * pow(n.denominator, p - 2, p) % p
        return n % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def reduce(self, row, positions):
        p = self.p
        for j in positions:
            row[j] %= p

    def render(self, a):
        return str(a)

    def spec_string(self):
        return f"F{self.p}"

    def random_element(self, rng):
        """A uniform element."""
        return rng.randrange(self.p)


QQ = Rationals()


def GF(p):
    return PrimeField(p)


def basis_vector(field, n, i):
    """The i-th standard basis vector of length n, as a list."""
    v = [field.zero] * n
    v[i] = field.one
    return v


def _offsets(dims):
    """Running sums 0, d0, d0 + d1, ..., sum(dims): where each block starts."""
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


def _check_cap(rows, cols):
    cap = dimension_cap()
    if rows > cap or cols > cap:
        raise DimensionCapExceeded(f"matrix {rows}x{cols} exceeds dimension cap {cap}")


class Matrix:
    """Immutable dense matrix over a Field.  Rows are tuples of raw elements."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_span_cache")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        rows = [tuple(r) for r in rows]
        self.nrows = len(rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with zero rows")
            ncols = len(rows[0])
        self.ncols = ncols
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        _check_cap(self.nrows, self.ncols)
        self.rows = tuple(rows)
        self._span_cache = None

    @classmethod
    def _trusted(cls, field, rows, ncols):
        """A matrix on a tuple of row tuples of length ncols that a kernel
        has just built, with a shape bounded by checked inputs: no copy and
        no checks."""
        self = object.__new__(cls)
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows
        self._span_cache = None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        """The matrix of rows of ints, Fractions or strings, read through
        `field.of` and brought to canonical elements."""
        conv, reduce = field.of, field.reduce
        out = []
        for r in rows:
            row = [conv(x) for x in r]
            reduce(row, range(len(row)))
            out.append(row)
        return cls(field, out, ncols)

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [(z,) * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [tuple(o if i == j else z for j in range(n)) for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        for c in cols:
            if len(c) != nrows:
                raise DimensionMismatch("column length mismatch")
        _check_cap(nrows, len(cols))
        rows = tuple(zip(*cols)) if cols else ((),) * nrows
        return cls._trusted(field, rows, len(cols))

    # -- basic structure ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return list(self.transpose().rows)

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        o = self.field.one
        return all(
            (x == o if i == j else not x) for i, r in enumerate(self.rows) for j, x in enumerate(r)
        )

    # -- arithmetic ----------------------------------------------------

    def _same_shape(self, other):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other):
        self._same_shape(other)
        add = self.field.add
        rows = tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        return Matrix._trusted(self.field, rows, self.ncols)

    def __sub__(self, other):
        self._same_shape(other)
        sub = self.field.sub
        rows = tuple(tuple(map(sub, r1, r2)) for r1, r2 in zip(self.rows, other.rows))
        return Matrix._trusted(self.field, rows, self.ncols)

    def __neg__(self):
        neg = self.field.neg
        return Matrix._trusted(self.field, tuple(tuple(map(neg, r)) for r in self.rows), self.ncols)

    def scale(self, c):
        mul = self.field.mul
        rows = tuple(tuple(mul(c, a) for a in r) for r in self.rows)
        return Matrix._trusted(self.field, rows, self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        field = self.field
        z = field.zero
        brows = other.rows
        n = other.ncols
        # nonzero positions of each row of other, found on its first use
        supports = [None] * other.nrows
        out = []
        for arow in self.rows:
            acc = [z] * n
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    support = supports[k]
                    if support is None:
                        support = supports[k] = [j for j, b in enumerate(brow) if b]
                    for j in support:
                        acc[j] += a * brow[j]
                    field.reduce(acc, support)
            out.append(tuple(acc))
        return Matrix._trusted(field, tuple(out), n)

    def apply(self, vec):
        """Matrix times a plain vector (list/tuple), returns a list.  The
        vector's nonzero positions are found once, and each row is read only
        there."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        field = self.field
        z = field.zero
        support = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.rows:
            s = z
            for j, v in support:
                a = row[j]
                if a:
                    s += a * v
            out.append(s)
        field.reduce(out, range(self.nrows))
        return out

    def transpose(self):
        return Matrix._trusted(self.field, tuple(zip(*self.rows)) if self.nrows else
                               ((),) * self.ncols, self.nrows)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square matrix")
        field = self.field
        s = field.zero
        for i in range(self.nrows):
            s = field.add(s, self.rows[i][i])
        return s

    def hstack(self, other):
        if self.nrows != other.nrows or self.field != other.field:
            raise DimensionMismatch("hstack mismatch")
        return Matrix(
            self.field,
            [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise DimensionMismatch("vstack mismatch")
        return Matrix(self.field, list(self.rows) + list(other.rows), self.ncols)

    @classmethod
    def from_blocks(cls, field, row_dims, col_dims, blocks):
        """The matrix cut into row_dims x col_dims blocks whose (r, c) block
        is blocks[(r, c)]; blocks not given are zero."""
        row_offsets = _offsets(row_dims)
        col_offsets = _offsets(col_dims)
        ncols = col_offsets[-1]
        z = field.zero
        rows = [[z] * ncols for _ in range(row_offsets[-1])]
        for (r, c), b in blocks.items():
            if b.nrows != row_dims[r] or b.ncols != col_dims[c]:
                raise DimensionMismatch(f"block {(r, c)} is {b.nrows}x{b.ncols}, "
                                        f"expected {row_dims[r]}x{col_dims[c]}")
            r0, c0 = row_offsets[r], col_offsets[c]
            for i, row in enumerate(b.rows):
                out = rows[r0 + i]
                for j, x in enumerate(row):
                    if x:
                        out[c0 + j] = x
        return cls(field, rows, ncols)

    @classmethod
    def block_diag(cls, field, blocks):
        return cls.from_blocks(field, [b.nrows for b in blocks], [b.ncols for b in blocks],
                               {(k, k): b for k, b in enumerate(blocks)})

    def kronecker(self, other):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        mul = self.field.mul
        z = self.field.zero
        rows = []
        for r1 in self.rows:
            for r2 in other.rows:
                row = []
                for a in r1:
                    if a:
                        row.extend(mul(a, b) if b else z for b in r2)
                    else:
                        row.extend([z] * other.ncols)
                rows.append(tuple(row))
        return Matrix(self.field, rows, self.ncols * other.ncols)

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return Matrix._trusted(
            self.field, tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx), len(col_idx)
        )

    # -- elimination ----------------------------------------------------

    def _span(self):
        """(SpanAccumulator of the rows, pivot columns), cached.  The
        accumulator's rows are the nonzero rows of the rref; it refers to no
        matrix, so the cache makes no reference cycle."""
        got = self._span_cache
        if got is None:
            acc = SpanAccumulator(self.field, self.ncols)
            for r in self.rows:
                acc.add(r)
            got = self._span_cache = (acc, tuple(acc.pivots))
        return got

    def rref(self):
        """The reduced row echelon form: the accumulator's rows, then zero
        rows.  It shares this matrix's accumulator, as its own rows span
        the same space."""
        acc, pivots = self._span()
        zero_row = (self.field.zero,) * self.ncols
        R = Matrix._trusted(self.field, tuple(acc.rows) + (zero_row,) * (self.nrows - len(pivots)),
                            self.ncols)
        R._span_cache = self._span_cache
        return R

    def pivot_columns(self):
        return self._span()[1]

    def rank(self):
        return len(self._span()[1])

    def kernel_matrix(self):
        """Columns form a basis of the right kernel (see
        SpanAccumulator.kernel_matrix)."""
        return self._span()[0].kernel_matrix()

    def column_space_matrix(self):
        """Columns = the pivot columns of self (a basis of the column space)."""
        return self.submatrix(range(self.nrows), list(self.pivot_columns()))

    def inverse(self):
        """Via Eliminator: its rows are sparse, so the cap bounds only n."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of non-square matrix")
        el = Eliminator(self)
        if el.rank < self.nrows:
            raise InconsistentSystem("matrix not invertible")
        return el.solve_matrix(Matrix.identity(self.field, self.nrows))


def combination(field, coeffs, matrices, nrows, ncols):
    """The nrows x ncols matrix sum of c * M over the pairs (c, M) of coeffs
    and matrices; the zero matrix when every c is zero.  Only the nonzero
    entries of the matrices with a nonzero c are read, so a matrix whose
    coefficient is zero may be None.  The sums go through the field's add
    and mul: on the action matrices of the benchmark workloads that measured
    faster than raw sums followed by `reduce` over the written positions,
    over Q (where add and mul check for an integral Fraction) as over F_p."""
    _check_cap(nrows, ncols)
    add, mul = field.add, field.mul
    acc = [[field.zero] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, matrices):
        if c:
            if m.field != field or m.nrows != nrows or m.ncols != ncols:
                raise DimensionMismatch(
                    f"cannot add a {m.nrows}x{m.ncols} matrix over {m.field} "
                    f"into a {nrows}x{ncols} combination over {field}")
            for arow, row in zip(acc, m.rows):
                for j, x in enumerate(row):
                    if x:
                        arow[j] = add(arow[j], mul(c, x))
    return Matrix._trusted(field, tuple(map(tuple, acc)), ncols)


class Eliminator:
    """Reusable exact solver for A x = b with a fixed A.

    One pass feeds each column of A in as (A e_j, e_j), tagged with a 1 at
    nrows + j, to a SpanAccumulator of length nrows + ncols, and keeps it
    only when its reduction has an entry among the first nrows, that is when
    it is independent of the columns before it: those are the pivot columns.
    Reducing (b, 0) leaves (r, -x) with b - r = A x and x supported on the
    pivot columns, so the system is consistent exactly when r = 0, and x is
    then its unique solution there.  Used wherever many systems share a
    coefficient matrix (coordinate solvers for stored bases, induced actions
    on subquotients, ...).
    """

    def __init__(self, A):
        field = self.field = A.field
        n = self.nrows = A.nrows
        self.ncols = A.ncols
        acc = self._acc = SpanAccumulator(field, n + A.ncols)
        self.pivots = []
        for j, col in enumerate(A.columns()):
            v = {i: x for i, x in enumerate(col) if x}
            v[n + j] = field.one
            v = acc._reduce(v)
            if min(v) < n:
                acc.add(v)
                self.pivots.append(j)
        self.rank = len(self.pivots)

    def solve(self, b):
        """The solution of A x = b supported on the pivot columns, or None
        if the system is inconsistent."""
        n = self.nrows
        if len(b) != n:
            raise DimensionMismatch("rhs length mismatch")
        v = self._acc._reduce(b)
        if v and min(v) < n:
            return None
        x = [self.field.zero] * self.ncols
        for j, y in v.items():
            x[j - n] = self.field.neg(y)
        return x

    def solve_matrix(self, B):
        """X with A X = B (columns as solve() gives them), or None if some
        column is inconsistent."""
        if B.nrows != self.nrows:
            raise DimensionMismatch("rhs height mismatch")
        if B.field != self.field:
            raise DimensionMismatch("field mismatch")
        cols = [self.solve(b) for b in B.columns()]
        return None if None in cols else Matrix.from_columns(self.field, cols, self.ncols)


class SpanAccumulator:
    """Incremental basis of the span of vectors of a fixed length, kept in
    reduced row echelon form.

    Vectors arrive one at a time, as dense sequences or as sparse
    {column: value} maps, so no wide scratch matrix is ever built.  Each
    stored row is a {column: value} map keyed by its pivot column: it is 1
    there, and no other stored row has an entry there.  That form is unique,
    so the rows are the nonzero rows of the batch rref of the vectors, in
    whatever order they arrived.  The same rows give the quotient by the
    span (coordinates on the non-pivot columns, `complement`) and the common
    kernel of the rows read as linear forms (`kernel_matrix`).
    """

    def __init__(self, field, length):
        self.field = field
        self.length = length
        self._rows = {}  # pivot column -> {column: value} with 1 at the pivot

    @property
    def dim(self):
        return len(self._rows)

    @property
    def pivots(self):
        """The pivot columns, increasing."""
        return sorted(self._rows)

    @property
    def complement(self):
        """The non-pivot columns, increasing: the coordinates of the quotient."""
        rows = self._rows
        return [j for j in range(self.length) if j not in rows]

    @property
    def rows(self):
        """The basis as dense row tuples, by increasing pivot."""
        z = self.field.zero
        out = []
        for p in sorted(self._rows):
            v = [z] * self.length
            for j, x in self._rows[p].items():
                v[j] = x
            out.append(tuple(v))
        return out

    def _reduce(self, vec):
        """vec reduced against the stored rows, as a {column: value} map
        with no entry at a pivot."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        v = {j: x for j, x in items if x}
        rows = self._rows
        # subtracting a stored row leaves the entries at the other pivots
        for c in [c for c in v if c in rows]:
            _sparse_eliminate(self.field, v, v[c], rows[c])
        return v

    def contains(self, vec):
        return not self._reduce(vec)

    def add(self, vec):
        """Add a vector to the span; returns True if the span grew.  Once the
        span is the whole space, returns False without reading vec."""
        rows = self._rows
        if len(rows) == self.length:
            return False
        v = self._reduce(vec)
        if not v:
            return False
        field = self.field
        p = min(v)
        pv = v[p]
        if pv != 1:
            inv = field.inv(pv)
            for j in v:
                v[j] *= inv
            field.reduce(v, v)
        for row in rows.values():
            f = row.get(p)
            if f:
                _sparse_eliminate(field, row, f, v)
        rows[p] = v
        return True

    def add_columns(self, matrix):
        for c in matrix.columns():
            self.add(c)

    def basis_columns_matrix(self):
        """Basis vectors as columns (echelon rows transposed)."""
        return Matrix.from_columns(self.field, self.rows, self.length)

    def project(self, vec):
        """Coordinates of vec + span on the complement columns."""
        v = self._reduce(vec)
        z = self.field.zero
        return [v.get(c, z) for c in self.complement]

    def projection_matrix(self):
        """The matrix of project: column j is the image of the j-th
        standard basis vector."""
        field = self.field
        z, o, neg = field.zero, field.one, field.neg
        place = {c: k for k, c in enumerate(self.complement)}
        rows = [[z] * self.length for _ in place]
        for c, k in place.items():
            rows[k][c] = o
        for p, row in self._rows.items():
            for j, x in row.items():
                if j != p:
                    rows[place[j]][p] = neg(x)
        return Matrix(field, rows, self.length)

    def section_matrix(self):
        """Columns: the standard basis vectors at the complement columns,
        a right inverse of projection_matrix."""
        return Matrix.from_columns(
            self.field, [basis_vector(self.field, self.length, c) for c in self.complement],
            self.length)

    def kernel_matrix(self):
        """Columns form a basis of the vectors that every stored row sends
        to 0, one per complement column f: 1 at f, 0 at the other complement
        columns and minus column f of the stored rows at the pivots.  So its
        rows at the complement columns are the identity, which
        homology._kernel_module relies on.  It is the transpose of
        projection_matrix."""
        return self.projection_matrix().transpose()


def sparse_kernel(field, nvars, rows):
    """Basis (columns) of the common kernel of linear forms in nvars
    variables, each row a {column: value} map; the identity when there are
    no rows.  Stops reading rows once the rank reaches nvars."""
    acc = SpanAccumulator(field, nvars)
    for row in rows:
        acc.add(row)
        if acc.dim == nvars:
            break
    return acc.kernel_matrix()


def _sparse_eliminate(field, v, f, prow):
    """v -= f * prow on {column: value} rows, dropping the entries that
    cancel."""
    get = v.get
    for j, b in prow.items():
        v[j] = get(j, 0) - f * b
    field.reduce(v, prow)
    for j in prow:
        if not v[j]:
            del v[j]
