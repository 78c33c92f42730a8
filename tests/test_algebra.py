from fractions import Fraction

import pytest

from monomod.algebra import (
    AlgebraPresentation,
    multiply,
    radical_and_socle,
    regular_modules,
    validate_algebra,
)
from monomod.errors import DimensionMismatch, ValidationError
from monomod.linalg import GF, QQ, Matrix
from monomod.modules import validate_module


def test_kx2_validates(kx2):
    assert kx2.dim == 2
    x = kx2.element_by_label("x")
    assert (x * x).is_zero()


def test_non_associative_witness():
    # u*u = v, u*v = u: (uu)v = v*v = 0 but u(uv) = u*u = v
    pres = AlgebraPresentation(
        QQ, 3, ["1", "u", "v"], [1, 0, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1), (2, 0, 2, 1),
         (1, 1, 2, 1), (1, 2, 1, 1)],
    )
    with pytest.raises(ValidationError) as ei:
        validate_algebra(pres)
    assert ei.value.witness is not None


def test_unit_law_violation():
    # 1*x = 0 keeps associativity but breaks the left unit law
    pres = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (1, 0, 1, 1)],
    )
    with pytest.raises(ValidationError) as ei:
        validate_algebra(pres)
    assert "unit" in str(ei.value)


def test_bad_idempotents_witness(kx2):
    pres = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0], [1, 0]],
    )
    with pytest.raises(ValidationError):
        validate_algebra(pres)
    pres2 = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[0, 1]],
    )
    with pytest.raises(ValidationError):
        validate_algebra(pres2)


def test_multiply_relations(lambda2):
    A = lambda2
    x, y, z = (A.element_by_label(l) for l in ("x", "y", "z"))
    yx = A.element_by_label("yx")
    zx = A.element_by_label("zx")
    assert multiply(x, y) == yx.scale(-2)
    assert multiply(z, y) == zx
    assert multiply(x, z) == zx
    assert (multiply(y, z)).is_zero()
    a = A.element([1, 2, 3, 4, 5, 6])
    assert multiply(A.one(), a) == a and multiply(a, A.one()) == a


def test_multiply_algebra_mismatch(kx2, lambda2):
    with pytest.raises(DimensionMismatch):
        multiply(kx2.one(), lambda2.one())


def test_regular_modules(kx2, lambda2, trivial_k):
    L, R = regular_modules(kx2)
    assert L.action(1).rows == ((QQ.of(0), QQ.of(0)), (QQ.of(1), QQ.of(0)))
    L6, R6 = regular_modules(lambda2)
    assert L6.dim == R6.dim == 6
    Lk, Rk = regular_modules(trivial_k)
    assert Lk.action(0).is_identity() and Rk.action(0).is_identity()
    # outputs satisfy the module action law exactly
    validate_module(list(L6.actions), "left", lambda2)
    validate_module(list(R6.actions), "right", lambda2)


def test_radical_and_socle(kx2, lambda2, trivial_k):
    rs = radical_and_socle(kx2)
    assert rs["radical_basis"] == [(QQ.of(0), QQ.of(1))]
    assert rs["socle_basis"] == [(QQ.of(0), QQ.of(1))]
    rsk = radical_and_socle(trivial_k)
    assert rsk["radical_basis"] == []
    assert len(rsk["socle_basis"]) == 1
    rs6 = radical_and_socle(lambda2)
    assert len(rs6["radical_basis"]) == 5
    socle = Matrix.from_columns(QQ, [list(v) for v in rs6["socle_basis"]], 6)
    expected = Matrix.from_columns(
        QQ,
        [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
        6,
    )
    assert socle.hstack(expected).rank() == 2 == socle.rank()


def test_radical_nilpotent_exhaustive(lambda2, loop_arrow):
    for A in (lambda2, loop_arrow["algebra"]):
        rad = [list(v) for v in A.radical_basis()]
        # J.J inside J
        from monomod.linalg import SpanAccumulator

        acc = SpanAccumulator(A.field, A.dim)
        for v in rad:
            acc.add(v)
        current = rad
        for _ in range(A.dim + 1):
            nxt = [A.product_vectors(u, v) for u in rad for v in current]
            nxt = [v for v in nxt if any(v)]
            for v in nxt:
                assert acc.contains(v)
            if not nxt:
                break
            current = nxt
        else:
            pytest.fail("radical power did not vanish")


def test_loop_arrow_radical_dim(loop_arrow):
    # the loop and the arrow span the radical; both length-2 paths die
    assert len(loop_arrow["algebra"].radical_basis()) == 2


def test_declared_radical_verified(kx2):
    good = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        radical_basis=[[0, 1]],
    )
    A = validate_algebra(good)
    assert A.radical_basis() == [(QQ.of(0), QQ.of(1))]
    too_small = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        radical_basis=[],
    )
    with pytest.raises(ValidationError):
        validate_algebra(too_small).radical_basis()
    not_nilpotent = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        radical_basis=[[1, 0]],
    )
    with pytest.raises(ValidationError):
        validate_algebra(not_nilpotent).radical_basis()
    with pytest.raises(ValidationError, match="radical vector length"):
        AlgebraPresentation(
            QQ, 2, ["1", "x"], [1, 0],
            [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
            radical_basis=[[0, 1, 0]],
        )


def test_unsupported_characteristic():
    # char 2 with dim 2: the trace form method must refuse, a declared
    # radical must be accepted
    F = GF(2)
    pres = AlgebraPresentation(
        F, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
    )
    A = validate_algebra(pres)
    with pytest.raises(ValidationError):
        A.radical_basis()
    pres2 = AlgebraPresentation(
        F, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        radical_basis=[[0, 1]],
    )
    B = validate_algebra(pres2)
    assert len(B.radical_basis()) == 1


def test_opposite_algebra(lambda2):
    op = lambda2.opposite()
    assert op.opposite() is lambda2
    x, y = (op.element_by_label(l) for l in ("x", "y"))
    # in the opposite algebra x *op y = y x = yx
    assert multiply(x, y) == op.element_by_label("yx")


def test_generating_sets(kx2, lambda2, loop_arrow):
    for A in (kx2, lambda2, loop_arrow["algebra"]):
        gens = A.generators()
        # the generated unital subalgebra is everything
        from monomod.linalg import Matrix as M

        span = [list(A.unit)] + [
            [A.field.one if i == g else A.field.zero for i in range(A.dim)]
            for g in gens
        ]
        grew = True
        while grew:
            grew = False
            mat = M(A.field, span, A.dim)
            r = mat.rank()
            prods = [A.product_vectors(u, v) for u in span for v in span]
            mat2 = M(A.field, span + prods, A.dim)
            if mat2.rank() > r:
                span = [list(row) for row in mat2.rref().rows[: mat2.rank()]]
                grew = True
        assert M(A.field, span, A.dim).rank() == A.dim
