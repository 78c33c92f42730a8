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
    linear_toolkit,
)


def test_identity_full_rank():
    tk = linear_toolkit(Matrix.identity(QQ, 3))
    assert tk.rank == 3
    assert tk.kernel_basis == []


def test_zero_matrix_kernel():
    tk = linear_toolkit(Matrix.zero(QQ, 2, 3))
    assert tk.rank == 0
    assert len(tk.kernel_basis) == 3


def test_hand_elimination_example():
    # oracle: second row is twice the first, so rank 1 and kernel (-2, 1)
    tk = linear_toolkit(Matrix.from_rows(QQ, [[1, 2], [2, 4]]))
    assert tk.rank == 1
    assert tk.kernel_basis == [(Fraction(-2), Fraction(1))]


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
        rhs = Matrix.from_columns(QQ, [m.apply(x)], m.nrows)
        tk = linear_toolkit(m, rhs)
        assert m.apply(list(tk.particular_solution)) == list(rhs.column(0))


def test_inconsistent_vs_mismatch_are_distinct():
    m = Matrix.from_rows(QQ, [[1, 0], [1, 0]])
    bad_shape = Matrix.from_rows(QQ, [[1]])
    with pytest.raises(DimensionMismatch):
        linear_toolkit(m, bad_shape)
    no_solution = Matrix.from_columns(QQ, [[QQ.of(1), QQ.of(2)]], 2)
    with pytest.raises(InconsistentSystem):
        linear_toolkit(m, no_solution)
    with pytest.raises(DimensionMismatch):
        linear_toolkit(m, Matrix.from_rows(GF(5), [[1], [2]]))


def test_scalar_canonical_forms():
    assert QQ.of("6/4") == Fraction(3, 2)
    assert QQ.render(Fraction(-3, 2)) == "-3/2"
    assert QQ.render(Fraction(4, 2)) == "2"
    F = GF(7)
    assert F.of(-1) == 6
    assert F.of("3/2") == 3 * 4 % 7  # 2^{-1} = 4 mod 7
    assert F.render(F.of(10)) == "3"


def test_field_spec_parsing():
    assert Field.parse_spec("Q") is QQ
    assert Field.parse_spec("F11").p == 11
    with pytest.raises(ValueError):
        Field.parse_spec("F4")  # not prime
    with pytest.raises(ValueError):
        Field.parse_spec("R")


def test_dimension_cap_refusal():
    set_dimension_cap(8)
    try:
        with pytest.raises(DimensionCapExceeded):
            Matrix.zero(QQ, 9, 2)
        Matrix.zero(QQ, 8, 8)
    finally:
        set_dimension_cap(512)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_span_accumulator_matches_batch_rref(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    vecs = [[QQ.of(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 10))]
    acc = SpanAccumulator(QQ, n)
    for v in vecs:
        acc.add(v)
    batch = Matrix.from_rows(QQ, vecs, n).rref()
    expected = [batch.rows[i] for i in range(batch.rank())]
    assert [tuple(r) for r in acc.rows] == expected
    for v in vecs:
        assert acc.contains(v)


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
