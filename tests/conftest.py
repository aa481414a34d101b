import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from padicq import PadicContext  # noqa: E402


@pytest.fixture(scope="session")
def ctx5():
    return PadicContext(5, 12, 30)


@pytest.fixture(scope="session")
def ctx3():
    return PadicContext(3, 12, 30)


@pytest.fixture(scope="session")
def ctx7():
    return PadicContext(7, 12, 30)


@pytest.fixture(scope="session")
def oracles():
    """bench/oracles.py, loaded from its path: exact integer references that
    never import padicq."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("padicq_bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
