import importlib.util
import os
import sys
from pathlib import Path

import pytest

from ratcirc import DivisorLattice, poset_from_pairs

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "bench"

STRIKING_ELEMENTS = (1, 2, 3, 4, 6, 12, 18, 36)


@pytest.fixture
def striking_lattice() -> DivisorLattice:
    """The rank-8 sublattice of the divisors of 36 used throughout."""
    return DivisorLattice(36, STRIKING_ELEMENTS)


@pytest.fixture
def poset_n():
    """The 4-node N poset (1<3, 2<3, 2<4) with weights 3,2,3,2; 0-based pairs."""
    return poset_from_pairs((3, 2, 3, 2), [(0, 2), (1, 2), (1, 3)])


def _load_bench_module(name: str):
    """Import ``bench/<name>.py`` under the name ``bench_<name>``, without touching sys.path."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload table (``bench/workloads.py``)."""
    return _load_bench_module("workloads")


@pytest.fixture(scope="session")
def bench_tracer():
    """The benchmark's span store and summary (``bench/tracer.py``)."""
    return _load_bench_module("tracer")


@pytest.fixture(scope="session")
def src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env
