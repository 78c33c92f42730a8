import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomod.config import set_dimension_cap
from monomod.errors import DimensionCapExceeded, DimensionMismatch, InconsistentSystem
from monomod.linalg import (
    GF,
    QQ,
    Eliminator,
    Field,
    Matrix,
    SpanAccumulator,
    basis_vector,
    combination,
    sparse_kernel,
)


def test_identity_full_rank():
    m = Matrix.identity(QQ, 3)
    assert m.rank() == 3
    assert m.kernel_matrix().ncols == 0


def test_zero_matrix_kernel():
    m = Matrix.zero(QQ, 2, 3)
    assert m.rank() == 0
    assert m.kernel_matrix().ncols == 3


def test_hand_elimination_example():
    # oracle: second row is twice the first, so rank 1 and kernel (-2, 1)
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert m.rank() == 1
    assert list(m.kernel_matrix().columns()) == [(Fraction(-2), Fraction(1))]


def _random_matrix(field, rng, nrows, ncols):
    if field.kind == "Q":
        return Matrix.from_rows(
            field, [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        , ncols)
    return Matrix.from_rows(
        field, [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
    , ncols)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_rref_idempotent_and_rank_transpose(field):
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(field, rng, rng.randint(1, 12), rng.randint(1, 12))
        R = m.rref()
        assert R.rref() == R
        assert m.rank() == m.transpose().rank()


def test_particular_solution_exact():
    rng = random.Random(3)
    for _ in range(20):
        m = _random_matrix(QQ, rng, rng.randint(1, 6), rng.randint(1, 6))
        x = [QQ.of(rng.randint(-3, 3)) for _ in range(m.ncols)]
        rhs = m.apply(x)
        assert m.apply(Eliminator(m).solve(rhs)) == rhs


def test_inconsistent_vs_mismatch_are_distinct():
    # an inconsistent system has no solution (None); a shape or field
    # mismatch raises
    m = Matrix.from_rows(QQ, [[1, 0], [1, 0]])
    solver = Eliminator(m)
    with pytest.raises(DimensionMismatch):
        solver.solve_matrix(Matrix.from_rows(QQ, [[1]]))
    with pytest.raises(DimensionMismatch):
        solver.solve([QQ.of(1)])
    assert solver.solve([QQ.of(1), QQ.of(2)]) is None
    assert solver.solve_matrix(Matrix.from_columns(QQ, [[QQ.of(1), QQ.of(2)]], 2)) is None
    with pytest.raises(DimensionMismatch):
        solver.solve_matrix(Matrix.from_rows(GF(5), [[1], [2]]))


def test_scalar_canonical_forms():
    assert QQ.of("6/4") == Fraction(3, 2)
    assert QQ.render(Fraction(-3, 2)) == "-3/2"
    assert QQ.render(Fraction(4, 2)) == "2"
    # integral rationals are written as ints
    half = Fraction(1, 2)
    for x in (QQ.add(half, half), QQ.sub(half, -half), QQ.mul(half, 4),
              QQ.add(Fraction(1), 2), QQ.random_element(random.Random(1))):
        assert type(x) is int
    assert QQ.mul(half, 3) == Fraction(3, 2) and QQ.render(3) == "3"
    F = GF(7)
    assert F.of(-1) == 6
    assert F.of("3/2") == 3 * 4 % 7  # 2^{-1} = 4 mod 7
    assert F.render(F.of(10)) == "3"


def test_rational_inverse_is_exact():
    for a in (1, -1, 2, -2, 3, -3):
        for x in (a, QQ.of(a), Fraction(1, a)):
            inv = QQ.inv(x)
            assert type(inv) is not float
            assert inv * x == 1
            _assert_canonical(QQ, [inv])
    assert QQ.inv(-2) == Fraction(-1, 2) and QQ.inv(Fraction(-1, 3)) == -3
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_rational_of_returns_a_fraction():
    for n in (0, 1, -7, "3", "6/4", Fraction(5), Fraction(2, 3)):
        assert type(QQ.of(n)) is Fraction
    with pytest.raises(TypeError):
        QQ.of(0.5)


def test_fraction_and_int_entries_give_equal_results():
    rng = random.Random(29)
    for n, k, m in ((3, 4, 2), (5, 5, 5), (4, 2, 3), (2, 6, 1)):
        ints = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(k)] for _ in range(n)]
        ints_b = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(k)]
        A_int, B_int = Matrix(QQ, ints, k), Matrix(QQ, ints_b, m)
        A_frac = Matrix(QQ, [[QQ.of(x) for x in r] for r in ints], k)
        B_frac = Matrix(QQ, [[QQ.of(x) for x in r] for r in ints_b], m)
        assert A_frac == A_int and hash(A_frac) == hash(A_int)
        assert Matrix.from_rows(QQ, ints, k) == A_frac
        assert A_frac * B_frac == A_int * B_int
        assert hash(A_frac * B_frac) == hash(A_int * B_int)
        assert A_frac.rref() == A_int.rref()
        assert A_frac.kernel_matrix() == A_int.kernel_matrix()
        spans = []
        for A in (A_frac, A_int):
            acc = SpanAccumulator(QQ, k)
            for row in A.rows:
                acc.add(row)
            spans.append((acc.rows, acc.complement, acc.kernel_matrix()))
        assert spans[0] == spans[1]


def _random_rational_matrix(rng, nrows, ncols):
    """Half zeros; the rest ints and Fractions with denominators 2 and 3."""
    return Matrix.from_rows(QQ, [
        [0 if rng.random() < 0.5 else Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
         for _ in range(ncols)] for _ in range(nrows)], ncols)


def test_every_rational_kernel_writes_canonical_entries():
    from monomod.gallery import generic_M, lambda_q
    from monomod.homology import resolution

    rng = random.Random(41)
    written = []
    for _ in range(40):
        n, k, m = (rng.randint(1, 7) for _ in range(3))
        A = _random_rational_matrix(rng, n, k)
        B = _random_rational_matrix(rng, k, m)
        S = _random_rational_matrix(rng, n, n)
        vec = list(_random_rational_matrix(rng, 1, k).rows[0])
        coeffs = list(_random_rational_matrix(rng, 1, 3).rows[0])
        mats = [A] + [_random_rational_matrix(rng, n, k) for _ in range(2)]
        written += [A, B, A * B, A.rref(), A.kernel_matrix(), combination(QQ, coeffs, mats, n, k)]
        written.append(Matrix(QQ, [A.apply(vec)], n))
        if S.rank() == n:
            written.append(S.inverse())
            assert (S * S.inverse()).is_identity()
        solved = Eliminator(A).solve(A.apply(vec))
        written.append(Matrix(QQ, [solved], k))
        acc = SpanAccumulator(QQ, k)
        for row in A.rows:
            acc.add(row)
        written += [acc.projection_matrix(), acc.kernel_matrix(), acc.basis_columns_matrix()]
        written.append(Matrix(QQ, [acc.project(vec)], k - acc.dim))
        written.append(sparse_kernel(QQ, k, [{j: x for j, x in enumerate(r) if x} for r in A.rows]))
    # _kernel_module: the kernels of a resolution of a module with
    # non-integral entries
    M = generic_M(lambda_q(QQ, Fraction(3, 2)), 1, Fraction(-3, 2), Fraction(1, 3))
    for step in resolution(M, length=3).steps:
        written += list(step.kernel.actions) + [step.kernel_incl.matrix, step.d_matrix]
    entries = [x for M in written for r in M.rows for x in r]
    assert any(type(x) is Fraction for x in entries)
    _assert_canonical(QQ, entries)


@pytest.mark.parametrize("p", [2, 5])
def test_prime_field_reads_a_string_as_the_fraction_it_names(p):
    F = GF(p)
    for num in range(-12, 13):
        for den in range(1, 13):
            q = Fraction(num, den)
            for text in (f"{num}/{den}", str(q)):
                if q.denominator % p == 0:
                    with pytest.raises(ZeroDivisionError, match="has no image"):
                        F.of(text)
                else:
                    x = F.of(text)
                    assert x == F.of(q) and 0 <= x < p
                    assert x * den % p == num % p
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, p))
    with pytest.raises(ZeroDivisionError):
        F.of(f"-3/{p * p}")
    # a factor p cancels first: 5/10 = 1/2 and 10/4 = 5/2 over F_5
    assert GF(5).of("5/10") == 3
    assert GF(5).of("10/4") == 0


def test_field_spec_parsing():
    assert Field.parse_spec("Q") is QQ
    assert Field.parse_spec("F11").p == 11
    assert GF(7) == Field.parse_spec("F7")
    assert hash(GF(7)) == hash(Field.parse_spec("F7"))
    assert GF(7) != GF(5) and GF(7) != QQ
    with pytest.raises(ValueError, match="needs a prime"):
        Field.parse_spec("F4")  # not prime
    for bad in ("R", "Fp", "F"):
        with pytest.raises(ValueError, match=f"cannot parse field spec '{bad}'"):
            Field.parse_spec(bad)


def test_prime_fields_of_large_primes():
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert Field.parse_spec("F2305843009213693951") == GF(2 ** 61 - 1)
    assert GF(10 ** 9 + 7).inv(2) == (10 ** 9 + 8) // 2
    # the Carmichael number 561 = 3 * 11 * 17, a square, and a strong
    # pseudoprime to the bases 2, 3, 5 and 7 with no factor among the bases
    for composite in (561, 7 ** 2, 151 * 751 * 28351):
        with pytest.raises(ValueError, match="needs a prime"):
            GF(composite)
    with pytest.raises(ValueError, match="cannot decide whether"):
        GF(2 ** 89 - 1)


def test_field_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert Matrix.zero(QQ, 1, 2).rows[0][0] is QQ.zero


# Test-only references for the shared matrix kernels: plain lists, with the
# field's own scalar ops, so every sum and product is reduced as it is made.

def _ref_mul(field, A, B, ncols):
    return [
        [_ref_dot(field, row, [brow[j] for brow in B]) for j in range(ncols)] for row in A
    ]


def _ref_dot(field, u, v):
    s = field.zero
    for a, b in zip(u, v):
        s = field.add(s, field.mul(a, b))
    return s


def _ref_rref(field, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != field.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _ref_kernel_columns(field, rows, ncols):
    R, pivots = _ref_rref(field, rows, ncols)
    cols = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(R[r][f])
        cols.append(tuple(v))
    return cols


def _kernel_cases(field, rng):
    """(A, B, vec) with A*B defined: random, all-(p-1) entries whose partial
    sums pass p, zero rows, and 0 x n / n x 0 shapes."""
    top = -1 if field.p is None else field.p - 1
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (4, 4, 4), (5, 3, 6), (3, 7, 4)]
    for n, k, m in shapes:
        yield _random_matrix(field, rng, n, k), _random_matrix(field, rng, k, m)
        full = Matrix.from_rows(field, [[top] * k for _ in range(n)], k)
        yield full, Matrix.from_rows(field, [[top] * m for _ in range(k)], m)
        if n:
            rows = [list(r) for r in _random_matrix(field, rng, n, k).rows]
            rows[n // 2] = [field.zero] * k
            yield Matrix(field, rows, k), _random_matrix(field, rng, k, m)


def _assert_canonical(field, entries):
    """Over Q an int, or a Fraction that is not integral (never a float);
    over F_p an int in [0, p)."""
    for x in entries:
        if field.p is None:
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x
        else:
            assert type(x) is int and 0 <= x < field.p


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)])
def test_matrix_kernels_match_reduce_every_step_reference(field):
    rng = random.Random(17)
    top = field.of(-1)
    for A, B in _kernel_cases(field, rng):
        AB = A * B
        assert [list(r) for r in AB.rows] == _ref_mul(field, A.rows, B.rows, B.ncols)
        assert (AB.nrows, AB.ncols) == (A.nrows, B.ncols)
        for M in (A, B):
            # sparse vectors: zero, one nonzero entry, and all-(p-1) entries
            # whose partial sums pass p; A or B has 0 columns in some shapes
            n = M.ncols
            vecs = [[field.zero] * n, [top] * n,
                    [top if j == n // 2 else field.zero for j in range(n)]]
            if M is A:
                vecs.append(list(B.column(0)) if B.ncols else [field.one] * n)
            for vec in vecs:
                out = M.apply(vec)
                assert out == [_ref_dot(field, row, vec) for row in M.rows]
                _assert_canonical(field, out)
            with pytest.raises(DimensionMismatch):
                M.apply([field.one] * (n + 1))
        R_rows, pivots = _ref_rref(field, A.rows, A.ncols)
        assert A.rref() == Matrix(field, R_rows, A.ncols)
        assert list(A.pivot_columns()) == pivots
        K = A.kernel_matrix()
        assert K.columns() == _ref_kernel_columns(field, A.rows, A.ncols)
        assert (A * K).is_zero()
        for M in (AB, A.rref(), K):
            _assert_canonical(field, [x for r in M.rows for x in r])


def _ref_combination(field, coeffs, matrices, nrows, ncols):
    out = Matrix.zero(field, nrows, ncols)
    for c, m in zip(coeffs, matrices):
        out = out + m.scale(c)
    return out


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_combination_matches_scale_and_add(field):
    rng = random.Random(23)
    top = field.of(-1)
    for nrows, ncols, count in ((0, 0, 3), (0, 4, 2), (3, 0, 2), (1, 1, 1),
                                (3, 3, 4), (2, 5, 6), (6, 4, 3)):
        mats = [_random_matrix(field, rng, nrows, ncols) for _ in range(count)]
        # all-(p-1) matrices, whose sums pass p, and a zero matrix
        mats += [Matrix(field, [[top] * ncols for _ in range(nrows)], ncols),
                 Matrix.zero(field, nrows, ncols)]
        n = len(mats)
        cases = [[field.zero] * n, [top] * n, [field.one] + [field.zero] * (n - 1)]
        cases += [[field.of(rng.choice([0, 0, 1, -1, 2, 3])) for _ in range(n)]
                  for _ in range(8)]
        for coeffs in cases:
            got = combination(field, coeffs, mats, nrows, ncols)
            assert got == _ref_combination(field, coeffs, mats, nrows, ncols)
            assert (got.nrows, got.ncols) == (nrows, ncols)
            _assert_canonical(field, [x for r in got.rows for x in r])
        assert combination(field, [field.zero] * n, mats, nrows, ncols).is_zero()
    # no terms at all: the zero matrix of the requested shape
    assert combination(field, [], [], 2, 3) == Matrix.zero(field, 2, 3)
    assert combination(field, [], [], 0, 0) == Matrix.zero(field, 0, 0)


def test_combination_checks_the_matrices_it_reads():
    A = Matrix.identity(GF(5), 2)
    wrong_shape = Matrix.identity(GF(5), 3)
    # a matrix whose coefficient is zero is not read
    assert combination(GF(5), [2, 0], [A, wrong_shape], 2, 2) == A.scale(2)
    assert combination(GF(5), [0, 3], [None, A], 2, 2) == A.scale(3)
    with pytest.raises(DimensionMismatch):
        combination(GF(5), [2, 1], [A, wrong_shape], 2, 2)
    with pytest.raises(DimensionMismatch):
        combination(GF(5), [1], [Matrix.identity(GF(7), 2)], 2, 2)
    with pytest.raises(DimensionMismatch):
        combination(GF(5), [1], [A], 2, 3)


def _sparse_cases(field, rng):
    """(nvars, dense rows): empty systems, rows that reduce to zero, all-(p-1)
    entries, random deficient systems and full-rank ones."""
    top = field.of(-1)
    z = field.zero
    yield 0, []
    yield 0, [[]]
    yield 3, []
    yield 3, [[z] * 3]
    yield 4, [[top] * 4 for _ in range(3)]
    for n in (1, 4, 7):
        rows = [list(r) for r in _random_matrix(field, rng, n, n).rows]
        # a sum of two rows, a multiple of another and a zero row reduce away
        rows.append([field.add(a, b) for a, b in zip(rows[0], rows[-1])])
        rows.append([field.mul(top, a) for a in rows[1 % n]])
        rows.append([z] * n)
        yield n, rows
        low_rank = _random_matrix(field, rng, 2, n) * _random_matrix(field, rng, n, n)
        yield n, [list(r) for r in low_rank.rows]
    yield 5, [basis_vector(field, 5, i) for i in (4, 2, 0, 3, 1)]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)])
def test_sparse_kernel_matches_dense_reference(field):
    rng = random.Random(31)
    for nvars, rows in _sparse_cases(field, rng):
        K = sparse_kernel(field, nvars, [{j: x for j, x in enumerate(r) if x} for r in rows])
        assert K.nrows == nvars
        assert K.columns() == _ref_kernel_columns(field, rows, nvars)
        _assert_canonical(field, [x for r in K.rows for x in r])


def test_sparse_kernel_stops_at_full_rank():
    def rows():
        for i in range(3):
            yield {i: QQ.of(2), (i + 1) % 3: QQ.one}
        raise AssertionError("read a row past full rank")

    K = sparse_kernel(QQ, 3, rows())
    assert (K.nrows, K.ncols) == (3, 0)


def test_dimension_cap_refusal():
    set_dimension_cap(8)
    try:
        with pytest.raises(DimensionCapExceeded):
            Matrix.zero(QQ, 9, 2)
        Matrix.zero(QQ, 8, 8)
        eye = Matrix.identity(QQ, 8)
        refused = [
            lambda: Matrix(QQ, [[1]] * 9, 1),
            lambda: Matrix.from_rows(QQ, [[1] * 9]),
            lambda: Matrix.identity(QQ, 9),
            # dense columns too long, and sparse columns too many
            lambda: Matrix.from_columns(QQ, [[1] * 9], 9),
            lambda: Matrix.from_columns(QQ, [{0: 1}] * 9, 1),
            lambda: combination(QQ, [1], [eye], 9, 8),
            lambda: eye.hstack(Matrix.zero(QQ, 8, 1)),
            lambda: eye.vstack(Matrix.zero(QQ, 1, 8)),
            lambda: Matrix.block_diag(QQ, [eye, Matrix.identity(QQ, 1)]),
            lambda: Matrix.identity(QQ, 3).kronecker(Matrix.identity(QQ, 3)),
            lambda: SpanAccumulator(QQ, 9).projection_matrix(),
            lambda: SpanAccumulator(QQ, 9).section_matrix(),
        ]
        for build in refused:
            with pytest.raises(DimensionCapExceeded):
                build()
        assert combination(QQ, [1, 1], [eye, eye], 8, 8) == eye.scale(2)
        assert Matrix.from_columns(QQ, [{7: 1}] * 8, 8).rank() == 1
    finally:
        set_dimension_cap(512)


def _stored(m):
    return [x for r in m.sparse_rows for x in r.values()]


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_every_route_stores_one_canonical_matrix(field):
    # T built five ways: dense rows, columns, a product and a combination
    # whose entries cancel, and a transpose
    if field.p is None:
        F = Fraction
        T = [[2, 0, F(1, 3)], [0, 0, 0], [0, 3, 0]]
        dense = Matrix(field, [[F(4, 2), F(0), F(1, 3)], [0, F(0, 5), 0], [0, F(6, 2), 0]])
        cols = [[F(2), 0, 0], {2: 3}, [F(1, 3), F(0), 0]]
        # row 0 sums 3/2 + 1/2, row 1 cancels, row 2 is 2 * 3/2
        A = [[1, 1, 0], [1, -3, 0], [0, 0, 2]]
        B = [[F(3, 2), 0, F(1, 4)], [F(1, 2), 0, F(1, 12)], [0, F(3, 2), 0]]
        M1 = [[1, 5, F(1, 6)], [7, 0, 0], [0, F(3, 4), 0]]
        M2 = [[0, -5, 0], [-7, 0, 0], [0, F(3, 4), 0]]
        coeffs = [2, 2]
    else:
        T = [[1, 0, 1], [0, 0, 0], [0, 1, 0]]
        dense = Matrix(field, [[3, 0, 1], [2, 0, 4], [0, 5, 0]])
        cols = [[1, 0, 0], {2: 1}, [3, 2, 0]]
        # row 0 cancels in column 1, row 1 cancels everywhere
        A = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        B = [[0, 1, 0], [1, 1, 1], [1, 0, 1]]
        M1 = [[1, 1, 0], [1, 0, 0], [0, 0, 1]]
        M2 = [[0, 1, 1], [1, 0, 0], [0, 1, 1]]
        coeffs = [1, 1]
    routes = {
        "dense": dense,
        "from_columns": Matrix.from_columns(field, cols, 3),
        "product": Matrix.from_rows(field, A) * Matrix.from_rows(field, B),
        "combination": combination(field, coeffs,
                                   [Matrix.from_rows(field, M1), Matrix.from_rows(field, M2)],
                                   3, 3),
        "transpose": Matrix(field, [list(c) for c in zip(*T)]).transpose(),
    }
    for name, m in routes.items():
        assert m == routes["dense"] and hash(m) == hash(routes["dense"]), name
        assert [list(r) for r in m.rows] == T, name
        assert [len(r) for r in m.sparse_rows] == [2, 0, 1], name
        stored = _stored(m)
        assert all(stored), name
        _assert_canonical(field, stored)
        if field.p is None:
            assert sorted(type(x).__name__ for x in stored) == ["Fraction", "int", "int"], name
    assert routes["product"].sparse_rows[1] == {}


def test_insertion_order_does_not_reach_output():
    from monomod.io import matrix_to_entries
    from monomod.modules import _json_safe

    # row 0 of the product is filled at column 2 before column 0
    A = Matrix.from_rows(QQ, [[1, 1], [0, 2]])
    B = Matrix.from_rows(QQ, [[0, 0, Fraction(1, 2)], [3, 0, 0]])
    P = A * B
    assert list(P.sparse_rows[0]) == [2, 0]
    dense = Matrix.from_rows(QQ, [[3, 0, Fraction(1, 2)], [6, 0, 0]])
    assert matrix_to_entries(P) == matrix_to_entries(dense) == [
        [0, 0, "3"], [0, 2, "1/2"], [1, 0, "6"]]
    assert _json_safe({"m": P}) == _json_safe({"m": dense})
    assert P.entries() == dense.entries()
    assert P.rref().rows == dense.rref().rows
    assert P.pivot_columns() == dense.pivot_columns()
    assert P.kernel_matrix().rows == dense.kernel_matrix().rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_span_accumulator_matches_batch_rref(field, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)

    def vector():
        return list(_random_matrix(field, rng, 1, n).rows[0])

    vecs = [vector() for _ in range(rng.randint(1, 10))]
    acc = SpanAccumulator(field, n)
    # shuffled order, each vector dense or as a {column: value} map
    for v in rng.sample(vecs, len(vecs)):
        acc.add({j: x for j, x in enumerate(v) if x} if rng.random() < 0.5 else v)
    stacked = Matrix(field, vecs, n)
    R, pivots = _ref_rref(field, vecs, n)
    rank = len(pivots)
    assert acc.rows == [tuple(r) for r in R[:rank]]
    assert acc.pivots == pivots
    assert acc.complement == [j for j in range(n) if j not in pivots]
    assert acc.kernel_matrix().columns() == _ref_kernel_columns(field, vecs, n)
    # quotient: Q kills the span, S is a section of Q, and project(w) is
    # the class of w: w - S project(w) lies in the span
    Q, S = acc.projection_matrix(), acc.section_matrix()
    assert (Q.nrows, S.ncols) == (n - rank, n - rank)
    assert (Q * S).is_identity()
    assert (Q * stacked.transpose()).is_zero()
    for w in vecs + [vector() for _ in range(4)]:
        q = acc.project(w)
        assert q == Q.apply(w)
        rest = [field.sub(a, b) for a, b in zip(w, S.apply(q))]
        assert len(_ref_rref(field, vecs + [rest], n)[1]) == rank
        assert acc.contains(w) == (len(_ref_rref(field, vecs + [w], n)[1]) == rank)
    for M in (Q, S, acc.kernel_matrix()):
        _assert_canonical(field, [x for r in M.rows for x in r])


def test_span_accumulator_stops_at_full_rank():
    class Unread:
        def __iter__(self):
            raise AssertionError("read a vector after full rank")

    acc = SpanAccumulator(QQ, 2)
    assert acc.add([QQ.one, QQ.zero]) and acc.add({1: QQ.of(3)})
    assert acc.add(Unread()) is False
    assert (acc.dim, acc.complement) == (2, [])


def test_eliminator_reusable_solver():
    rng = random.Random(11)
    m = _random_matrix(QQ, rng, 5, 4)
    el = Eliminator(m)
    for _ in range(8):
        x = [QQ.of(rng.randint(-3, 3)) for _ in range(4)]
        b = m.apply(x)
        sol = el.solve(b)
        assert sol is not None and m.apply(sol) == b
    assert el.rank == m.rank()


def _reference_solve(A, b):
    """Oracle: row-reduce the scratch matrix [A | I] and apply its transform.

    The solution it returns is the one supported on the pivot columns of A.
    """
    field, n, m = A.field, A.nrows, A.ncols
    if n == 0:
        return [field.zero] * m
    R = A.hstack(Matrix.identity(field, n)).rref()
    pivots = [c for c in R.pivot_columns() if c < m]
    t = R.submatrix(range(n), range(m, m + n)).apply(b)
    if any(t[len(pivots):]):
        return None
    x = [field.zero] * m
    for r, c in enumerate(pivots):
        x[c] = t[r]
    return x


def _solver_cases(field, rng):
    """(A, right-hand sides) over field: full and deficient rank, empty shapes."""
    def vector(length):
        return list(_random_matrix(field, rng, 1, length).rows[0])

    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (6, 3), (3, 6), (7, 5)]
    for n, m in shapes:
        for k in sorted({0, min(n, m) // 2, min(n, m)}):
            A = _random_matrix(field, rng, n, k) * _random_matrix(field, rng, k, m)
            yield A, [A.apply(vector(m)) for _ in range(3)] + [vector(n) for _ in range(3)]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_eliminator_matches_row_reduction_oracle(field):
    rng = random.Random(29)
    verdicts = set()
    for A, rhs in _solver_cases(field, rng):
        el = Eliminator(A)
        assert el.rank == A.rank()
        assert el.pivots == list(A.pivot_columns())
        sols = []
        for b in rhs:
            x = el.solve(b)
            assert x == _reference_solve(A, b)
            verdicts.add((A.rank() < A.nrows, x is None))
            sols.append(x)
        good = [(b, x) for b, x in zip(rhs, sols) if x is not None]
        bad = [b for b, x in zip(rhs, sols) if x is None]
        B = Matrix.from_columns(field, [b for b, _ in good], A.nrows)
        X = el.solve_matrix(B)
        assert X == Matrix.from_columns(field, [x for _, x in good], A.ncols)
        # no right-hand side at all: an ncols x 0 solution
        assert el.solve_matrix(Matrix.zero(field, A.nrows, 0)) == Matrix.zero(field, A.ncols, 0)
        other = GF(5) if field == QQ else QQ
        with pytest.raises(DimensionMismatch):
            el.solve_matrix(Matrix.zero(other, A.nrows, 1))
        if bad:
            # one inconsistent column among consistent ones spoils the lot
            B = Matrix.from_columns(field, [b for b, _ in good] + bad[:1], A.nrows)
            assert el.solve_matrix(B) is None
    # both consistent and inconsistent systems were met with deficient rank
    assert {(True, True), (True, False)} <= verdicts


def test_eliminator_stays_within_dimension_cap():
    # an 8x4 matrix of rank 4: [A | I] would be 8x12, the pivot block is 4x4
    A = Matrix.from_rows(QQ, [[1 if j == i % 4 else i for j in range(4)] for i in range(8)])
    assert A.rank() == 4
    x = [QQ.of(v) for v in (3, -1, 0, 2)]
    set_dimension_cap(8)
    try:
        with pytest.raises(DimensionCapExceeded):
            _reference_solve(A, A.apply(x))
        el = Eliminator(A)
        assert el.solve(A.apply(x)) == x
        assert el.solve([QQ.one] + [QQ.zero] * 7) is None
    finally:
        set_dimension_cap(512)


def test_inverse_and_kron():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 5]])
    assert (a.inverse() * a).is_identity()
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    k = a.kronecker(b)
    assert k.nrows == 4 and k.rank() == 4
    with pytest.raises(InconsistentSystem):
        Matrix.from_rows(QQ, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)])
def test_inverse_matches_reference_rref_of_S_with_identity(field):
    # det [[1, 2], [3, 1]] = -5: invertible over Q and F_7, singular over F_5
    rng = random.Random(23)
    cases = [Matrix.from_rows(field, [[1, 2], [3, 1]]), Matrix(field, [], 0)]
    cases += [_random_matrix(field, rng, n, n) for n in (1, 3, 4)]
    invertible = []
    for S in cases:
        n = S.nrows
        R, pivots = _ref_rref(
            field, [list(r) + basis_vector(field, n, i) for i, r in enumerate(S.rows)], 2 * n)
        invertible.append(pivots == list(range(n)))
        if invertible[-1]:
            inv = S.inverse()
            assert inv == Matrix(field, [r[n:] for r in R], n)
            _assert_canonical(field, [x for r in inv.rows for x in r])
        else:
            with pytest.raises(InconsistentSystem):
                S.inverse()
    assert invertible[:2] == [field.p != 5, True]


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_inverse_stays_within_dimension_cap(field):
    # a 6x6 Vandermonde matrix: [S | I] would be 6x12, above a cap of 8
    S = Matrix.from_rows(field, [[(i + 1) ** j for j in range(6)] for i in range(6)])
    set_dimension_cap(8)
    try:
        inv = S.inverse()
        assert (inv * S).is_identity() and (S * inv).is_identity()
        with pytest.raises(InconsistentSystem):
            Matrix.from_rows(field, [[1, 2], [2, 4]]).inverse()
    finally:
        set_dimension_cap(512)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_from_columns_and_columns_transpose(field):
    rng = random.Random(13)
    for nrows, ncols in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 2), (2, 5)):
        m = _random_matrix(field, rng, nrows, ncols)
        cols = m.columns()
        assert cols == [m.column(j) for j in range(ncols)]
        assert all(type(c) is tuple for c in cols)
        assert Matrix.from_columns(field, cols, nrows) == m
        assert Matrix.from_columns(field, [list(c) for c in cols], nrows) == m
        assert m.transpose().rows == tuple(cols)
    with pytest.raises(DimensionMismatch, match="column length mismatch"):
        Matrix.from_columns(field, [[field.one, field.zero], [field.one]], 2)
    with pytest.raises(DimensionMismatch, match="column length mismatch"):
        Matrix.from_columns(field, [[field.one]], 0)
    set_dimension_cap(3)
    try:
        with pytest.raises(DimensionCapExceeded):
            Matrix.from_columns(field, [[field.one]] * 4, 1)
        with pytest.raises(DimensionCapExceeded):
            Matrix.from_columns(field, [], 4)
    finally:
        set_dimension_cap(512)


def test_from_blocks_places_blocks_and_checks_shapes():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3], [4]])
    m = Matrix.from_blocks(QQ, [1, 2], [1, 2], {(0, 1): a, (1, 0): b})
    assert m == Matrix.from_rows(QQ, [[0, 1, 2], [3, 0, 0], [4, 0, 0]])
    assert Matrix.from_blocks(QQ, [0, 1], [2], {}) == Matrix.zero(QQ, 1, 2)
    assert Matrix.block_diag(QQ, [a, b]) == Matrix.from_rows(
        QQ, [[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    with pytest.raises(DimensionMismatch):
        Matrix.from_blocks(QQ, [1, 2], [1, 2], {(0, 0): a})
