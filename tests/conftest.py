import pytest

from chipmunkring import hots
from chipmunkring.params import preset


@pytest.fixture(scope="session")
def single_params():
    return preset("single")


@pytest.fixture(scope="session")
def multi_params():
    return preset("multi")


@pytest.fixture(scope="session")
def key_pool(single_params):
    """64 deterministic key pairs shared across the suite."""
    return [hots.keygen(bytes([i]) * 32, single_params) for i in range(64)]
