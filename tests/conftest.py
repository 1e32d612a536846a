import importlib.util
from pathlib import Path

import pytest

from chipmunkring import hots
from chipmunkring.params import preset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


@pytest.fixture(scope="session")
def load_script():
    """load_script(name) runs scripts/<name>.py as a module and returns it."""
    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
