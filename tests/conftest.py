import random

import pytest

from monomod import config
from monomod.algebra import AlgebraPresentation, validate_algebra
from monomod.gallery import lambda_q, lsgp_example
from monomod.linalg import QQ


@pytest.fixture(scope="session")
def kx2():
    pres = AlgebraPresentation(
        QQ, 2, ["1", "x"], [1, 0],
        [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
        idempotents=[[1, 0]],
    )
    return validate_algebra(pres, label="k[x]/(x^2)")


@pytest.fixture(scope="session")
def trivial_k():
    pres = AlgebraPresentation(QQ, 1, ["1"], [1], [(0, 0, 0, 1)], idempotents=[[1]])
    return validate_algebra(pres, label="k")


@pytest.fixture(scope="session")
def lambda2():
    return lambda_q(QQ, 2)


@pytest.fixture(scope="session")
def loop_arrow():
    return lsgp_example()


@pytest.fixture()
def rng():
    return random.Random(12345)


@pytest.fixture(autouse=True)
def _dimension_cap_unchanged():
    # the cap is process-wide: a test that leaves it changed would change
    # what every later test may compute
    before = config.dimension_cap()
    yield
    after = config.dimension_cap()
    if after != before:
        config.set_dimension_cap(before)
        pytest.fail(f"the test left the dimension cap at {after}, not {before}")
