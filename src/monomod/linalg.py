"""Exact linear algebra over Q and prime fields.

Everything downstream (Hom spaces, resolutions, Ext/Tor) reduces to ranks,
kernels and exact solves of the matrices built here.  No floating point:
over Q an integral entry is a Python int and any other entry a
`fractions.Fraction` with denominator greater than 1; F_p entries are ints
in [0, p).

The matrices downstream are almost all zeros, so there is one sparse row
type: a row is a {column: value} map of its nonzero entries, the form that
`Matrix` stores and that `SpanAccumulator` keeps its echelon rows in.  A
stored zero never survives and every entry is canonical, so equal matrices
have equal rows, and every kernel visits only nonzeros.  The dense view
(`Matrix.rows`) is built only for printing, files and tests.

The two fields differ only in their scalars, so every matrix kernel is
written once, for both: the product (`Matrix.__mul__`, one `row_combination`
of the rows of the right factor per row of the left), the matrix-vector
product (`Matrix.apply`, through the cached columns at the vector's
nonzeros), the linear combination sum c_i M_i of stored matrices
(`combination`, which is how an algebra element acts, how a Hom space's
coordinates become a map, and how path maps are summed), and the
eliminations below.  They add and multiply raw entries with Python's
operators; the field's `canon` then drops the sums that cancel and brings
the others to canonical form (over Q an integral Fraction becomes an int,
over F_p a residue mod p), and its `reduce` does the same in place for the
dense vectors of `apply` and the echelon rows.

There is one elimination.  `SpanAccumulator` takes vectors one at a time
and keeps a sparse reduced echelon basis of their span.  A matrix's rref,
pivot columns, rank and kernel (`Matrix.rref` and the rest), spans,
quotients by a span, kernels of streamed linear forms (`sparse_kernel`) and
the solutions of `Eliminator` (a matrix's columns fed in tagged by position;
`Matrix.inverse` solves against the identity with it) are all read off it.
"""

from fractions import Fraction
from itertools import compress

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
    `random_element(rng)` for randomized searches, `reduce(row,
    positions)`, which brings sums of products of elements at those
    positions of a list or map back to canonical elements in place, and
    `canon(items)`, the {position: element} map of the (position, sum of
    products) pairs whose canonical element is not zero: the row form of
    `Matrix`.  `of` is the one exception to the canonical form: over Q it
    returns a Fraction, so a value a caller reads back (a parameter such as
    `Lambda(q).q_value`) divides exactly with `/`.

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

    def canon(self, items):
        return {j: x.numerator if type(x) is Fraction and x.denominator == 1 else x
                for j, x in items if x}

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

    def canon(self, items):
        p = self.p
        return {j: y for j, x in items if (y := x % p)}

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


def _dense(row, n, zero):
    """The {position: value} map row as a tuple of length n."""
    v = [zero] * n
    for j, x in row.items():
        v[j] = x
    return tuple(v)


def _check_cap(rows, cols):
    cap = dimension_cap()
    if rows > cap or cols > cap:
        raise DimensionCapExceeded(f"matrix {rows}x{cols} exceeds dimension cap {cap}")


class Matrix:
    """Immutable sparse matrix over a Field.

    Row i is the map `sparse_rows[i]` from the columns of its nonzero
    entries to those entries, each canonical (see Field): no zero is stored,
    so two matrices are equal exactly when their rows are equal maps, and no
    kernel below reads a zero.  The maps are never changed once a matrix
    holds them, so matrices share them freely (a product's row can be a row
    of a factor, a transpose's rows are the cached columns).  Column j as a
    {row: value} map is `sparse_columns()[j]`, built on first read and kept.
    `rows` is the dense view, a tuple of row tuples built when it is first
    read; only printing, files, tests and the benchmark's checks read it.
    """

    __slots__ = ("field", "nrows", "ncols", "sparse_rows", "_cols", "_dense", "_span_cache")

    def __init__(self, field, rows, ncols=None):
        """The matrix of dense rows of field elements, sequences of length
        ncols; an integral Fraction is stored as its int, and over F_p an
        int as its residue."""
        self.field = field
        rows = list(rows)
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
        canon = field.canon
        self.sparse_rows = tuple(canon(enumerate(r)) for r in rows)
        self._cols = self._dense = self._span_cache = None

    @classmethod
    def _trusted(cls, field, rows, ncols):
        """A matrix on a tuple of canonical {column: value} rows that a
        kernel has just built, with a shape bounded by checked inputs: no
        copy and no checks."""
        self = object.__new__(cls)
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.sparse_rows = rows
        self._cols = self._dense = self._span_cache = None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        """The matrix of rows of ints, Fractions or strings, read through
        `field.of`."""
        conv = field.of
        return cls(field, [[conv(x) for x in r] for r in rows], ncols)

    @classmethod
    def zero(cls, field, nrows, ncols):
        _check_cap(nrows, ncols)
        return cls._trusted(field, ({},) * nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        _check_cap(n, n)
        o = field.one
        return cls._trusted(field, tuple({i: o} for i in range(n)), n)

    @classmethod
    def from_columns(cls, field, cols, nrows):
        """The matrix whose columns are cols: dense sequences of length
        nrows, read as the constructor reads rows, or {row: value} maps of
        canonical nonzero entries (a kernel's output), taken as they are."""
        _check_cap(nrows, len(cols))
        rows = [{} for _ in range(nrows)]
        for j, c in enumerate(cols):
            if not isinstance(c, dict):
                if len(c) != nrows:
                    raise DimensionMismatch("column length mismatch")
                c = field.canon(enumerate(c))
            for i, x in c.items():
                rows[i][j] = x
        return cls._trusted(field, tuple(rows), len(cols))

    # -- basic structure ----------------------------------------------

    @property
    def rows(self):
        """The dense rows, as tuples of field elements."""
        dense = self._dense
        if dense is None:
            z, n = self.field.zero, self.ncols
            dense = self._dense = tuple(_dense(r, n, z) for r in self.sparse_rows)
        return dense

    def sparse_columns(self):
        """The columns as {row: value} maps, built once."""
        cols = self._cols
        if cols is None:
            cols = [{} for _ in range(self.ncols)]
            for i, r in enumerate(self.sparse_rows):
                for j, x in r.items():
                    cols[j][i] = x
            cols = self._cols = tuple(cols)
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def entries(self):
        """The stored (nonzero) entries as (row, column, value), in (row,
        column) order whatever order the row maps were filled in."""
        return [(i, j, r[j]) for i, r in enumerate(self.sparse_rows) for j in sorted(r)]

    def column(self, j):
        """Column j as a dense tuple."""
        return _dense(self.sparse_columns()[j], self.nrows, self.field.zero)

    def columns(self):
        """The columns as dense tuples."""
        return [self.column(j) for j in range(self.ncols)]

    def is_zero(self):
        return not any(self.sparse_rows)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        return all(len(r) == 1 and r.get(i) == 1 for i, r in enumerate(self.sparse_rows))

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
        one = self.field.one
        return _sum_of_terms(self.field, [(one, self), (one, other)], self.nrows, self.ncols)

    def __sub__(self, other):
        self._same_shape(other)
        field = self.field
        return _sum_of_terms(field, [(field.one, self), (field.neg(field.one), other)],
                             self.nrows, self.ncols)

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c):
        return _sum_of_terms(self.field, [(c, self)] if c else [], self.nrows, self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        canon = self.field.canon
        brows = other.sparse_rows
        return Matrix._trusted(
            self.field,
            tuple(row_combination(canon, arow, brows) if arow else arow
                  for arow in self.sparse_rows),
            other.ncols)

    def apply(self, vec):
        """Matrix times a plain vector (list/tuple), returns a list.  Only
        the columns at the vector's nonzero positions are read."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        cols = self.sparse_columns()
        out = [self.field.zero] * self.nrows
        for j in compress(range(len(vec)), vec):
            v = vec[j]
            for i, a in cols[j].items():
                out[i] += a * v
        self.field.reduce(out, range(self.nrows))
        return out

    def transpose(self):
        """Shares its rows with this matrix's cached columns, and the other
        way round."""
        t = Matrix._trusted(self.field, self.sparse_columns(), self.nrows)
        t._cols = self.sparse_rows
        return t

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square matrix")
        field = self.field
        s = field.zero
        for i, r in enumerate(self.sparse_rows):
            x = r.get(i)
            if x:
                s = field.add(s, x)
        return s

    def hstack(self, other):
        if self.nrows != other.nrows or self.field != other.field:
            raise DimensionMismatch("hstack mismatch")
        return Matrix.from_blocks(self.field, [self.nrows], [self.ncols, other.ncols],
                                  {(0, 0): self, (0, 1): other})

    def vstack(self, other):
        if self.ncols != other.ncols or self.field != other.field:
            raise DimensionMismatch("vstack mismatch")
        return Matrix.from_blocks(self.field, [self.nrows, other.nrows], [self.ncols],
                                  {(0, 0): self, (1, 0): other})

    @classmethod
    def from_blocks(cls, field, row_dims, col_dims, blocks):
        """The matrix cut into row_dims x col_dims blocks whose (r, c) block
        is blocks[(r, c)]; blocks not given are zero."""
        row_offsets = _offsets(row_dims)
        col_offsets = _offsets(col_dims)
        ncols = col_offsets[-1]
        _check_cap(row_offsets[-1], ncols)
        rows = [{} for _ in range(row_offsets[-1])]
        for (r, c), b in blocks.items():
            if b.nrows != row_dims[r] or b.ncols != col_dims[c]:
                raise DimensionMismatch(f"block {(r, c)} is {b.nrows}x{b.ncols}, "
                                        f"expected {row_dims[r]}x{col_dims[c]}")
            r0, c0 = row_offsets[r], col_offsets[c]
            for i, row in enumerate(b.sparse_rows):
                out = rows[r0 + i]
                for j, x in row.items():
                    out[c0 + j] = x
        return cls._trusted(field, tuple(rows), ncols)

    @classmethod
    def block_diag(cls, field, blocks):
        return cls.from_blocks(field, [b.nrows for b in blocks], [b.ncols for b in blocks],
                               {(k, k): b for k, b in enumerate(blocks)})

    def kronecker(self, other):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")
        mul = self.field.mul
        n = other.ncols
        _check_cap(self.nrows * other.nrows, self.ncols * n)
        rows = tuple({j1 * n + j2: mul(a, b) for j1, a in r1.items() for j2, b in r2.items()}
                     for r1 in self.sparse_rows for r2 in other.sparse_rows)
        return Matrix._trusted(self.field, rows, self.ncols * n)

    def submatrix(self, row_idx, col_idx):
        """The entries at the given rows and the given distinct columns, in
        their order."""
        place = {c: k for k, c in enumerate(col_idx)}
        if len(place) != len(col_idx):
            raise ValueError("submatrix columns must be distinct")
        rows = self.sparse_rows
        return Matrix._trusted(
            self.field,
            tuple({place[j]: x for j, x in rows[i].items() if j in place} for i in row_idx),
            len(place))

    # -- elimination ----------------------------------------------------

    def _span(self):
        """(SpanAccumulator of the rows, pivot columns), cached.  The
        accumulator's rows are the nonzero rows of the rref; it refers to no
        matrix, so the cache makes no reference cycle."""
        got = self._span_cache
        if got is None:
            acc = SpanAccumulator(self.field, self.ncols)
            for r in self.sparse_rows:
                acc.add(r)
            got = self._span_cache = (acc, tuple(acc.pivots))
        return got

    def rref(self):
        """The reduced row echelon form: the accumulator's rows, then zero
        rows.  It shares this matrix's accumulator, as its own rows span
        the same space, and that accumulator's rows, which nothing adds to
        once it is cached."""
        acc, pivots = self._span()
        R = Matrix._trusted(self.field,
                            tuple(acc.sparse_rows) + ({},) * (self.nrows - len(pivots)),
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


def row_combination(canon, coeffs, rows, offset=0):
    """The sum of a * rows[offset + l] over the entries (l, a) of the
    {position: value} map coeffs, rows being {column: value} maps, as the
    map canon (a field's `canon`) makes of it.  A lone coefficient 1 returns
    its row itself."""
    if len(coeffs) == 1:
        (l, a), = coeffs.items()
        row = rows[offset + l]
        return row if a == 1 else canon((j, a * b) for j, b in row.items())
    acc = {}
    get = acc.get
    for l, a in coeffs.items():
        for j, b in rows[offset + l].items():
            acc[j] = get(j, 0) + a * b
    return canon(acc.items())


def combination(field, coeffs, matrices, nrows, ncols):
    """The nrows x ncols matrix sum of c * M over the pairs (c, M) of coeffs
    and matrices; the zero matrix when every c is zero.  coeffs is a
    sequence, or a {position: c} map of the nonzero ones.  Only the stored
    entries of the matrices with a nonzero c are read, so a matrix whose
    coefficient is zero may be None; a lone M with c = 1 is returned as it
    is."""
    _check_cap(nrows, ncols)
    items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    terms = [(c, matrices[i]) for i, c in items if c]
    for _c, m in terms:
        if m.field != field or m.nrows != nrows or m.ncols != ncols:
            raise DimensionMismatch(
                f"cannot add a {m.nrows}x{m.ncols} matrix over {m.field} "
                f"into a {nrows}x{ncols} combination over {field}")
    return _sum_of_terms(field, terms, nrows, ncols)


def _sum_of_terms(field, terms, nrows, ncols):
    """combination's sum over its (nonzero c, M) pairs, whose shapes it has
    checked."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = [None] * nrows
    for c, m in terms:
        for i, row in enumerate(m.sparse_rows):
            if row:
                a = acc[i]
                if a is None:
                    acc[i] = {j: c * x for j, x in row.items()}
                else:
                    get = a.get
                    for j, x in row.items():
                        a[j] = get(j, 0) + c * x
    canon = field.canon
    return Matrix._trusted(field, tuple({} if a is None else canon(a.items()) for a in acc),
                           ncols)


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
        for j, col in enumerate(A.sparse_columns()):
            v = acc._reduce({**col, n + j: field.one})
            if min(v) < n:
                acc.add(v)
                self.pivots.append(j)
        self.rank = len(self.pivots)

    def solve(self, b):
        """The solution of A x = b supported on the pivot columns, or None
        if the system is inconsistent."""
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        x = self._solution(b)
        return None if x is None else list(_dense(x, self.ncols, self.field.zero))

    def _solution(self, b):
        """solve() for a sequence or {row: value} map b, as a {column:
        value} map."""
        v = self._acc._reduce(b)
        n = self.nrows
        if v and min(v) < n:
            return None
        neg = self.field.neg
        return {j - n: neg(y) for j, y in v.items()}

    def solve_matrix(self, B):
        """X with A X = B (columns as solve() gives them), or None if some
        column is inconsistent."""
        if B.nrows != self.nrows:
            raise DimensionMismatch("rhs height mismatch")
        if B.field != self.field:
            raise DimensionMismatch("field mismatch")
        cols = [self._solution(b) for b in B.sparse_columns()]
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
    def sparse_rows(self):
        """The basis as {column: value} maps, by increasing pivot; a later
        add may change them."""
        rows = self._rows
        return [rows[p] for p in sorted(rows)]

    @property
    def rows(self):
        """The basis as dense row tuples, by increasing pivot."""
        return [_dense(r, self.length, self.field.zero) for r in self.sparse_rows]

    def _reduce(self, vec):
        """vec reduced against the stored rows, as a {column: value} map
        with no entry at a pivot."""
        if isinstance(vec, dict):
            v = {j: x for j, x in vec.items() if x}
        else:
            v = {j: vec[j] for j in compress(range(len(vec)), vec)}
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
        for c in matrix.sparse_columns():
            self.add(c)

    def basis_columns_matrix(self):
        """Basis vectors as columns (echelon rows transposed)."""
        return Matrix.from_columns(self.field, self.sparse_rows, self.length)

    def project(self, vec):
        """Coordinates of vec + span on the complement columns."""
        v = self._reduce(vec)
        z = self.field.zero
        return [v.get(c, z) for c in self.complement]

    def projection_matrix(self):
        """The matrix of project: column j is the image of the j-th
        standard basis vector."""
        field = self.field
        o, neg = field.one, field.neg
        place = {c: k for k, c in enumerate(self.complement)}
        _check_cap(len(place), self.length)
        rows = [{c: o} for c in place]
        for p, row in self._rows.items():
            for j, x in row.items():
                if j != p:
                    rows[place[j]][p] = neg(x)
        return Matrix._trusted(field, tuple(rows), self.length)

    def section_matrix(self):
        """Columns: the standard basis vectors at the complement columns,
        a right inverse of projection_matrix."""
        complement = self.complement
        _check_cap(self.length, len(complement))
        rows = [{} for _ in range(self.length)]
        for k, c in enumerate(complement):
            rows[c] = {k: self.field.one}
        return Matrix._trusted(self.field, tuple(rows), len(complement))

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
