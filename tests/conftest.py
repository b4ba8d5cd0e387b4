"""Shared fixtures for the BitDecoding reproduction test suite."""

import os
import sys

# One BLAS/OpenMP thread by default, as benchmarks/e2e/run.py pins it:
# tier-1 then runs in the numeric environment the ledger's digests come
# from, and a 2-core host is not oversubscribed.  NumPy reads the variables
# when it loads, so a default set after that would silently do nothing.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules and not all(var in os.environ for var in _BLAS_THREADS):
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS threads "
        "(a plugin or -p option imported it); set OPENBLAS_NUM_THREADS and "
        "OMP_NUM_THREADS in the environment instead"
    )
for _var in _BLAS_THREADS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.gpu.arch import GPU_REGISTRY, get_arch  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def a100():
    return get_arch("a100")


@pytest.fixture
def rtx4090():
    return get_arch("rtx4090")


@pytest.fixture
def h100():
    return get_arch("h100")


@pytest.fixture
def rtx5090():
    return get_arch("rtx5090")


@pytest.fixture(scope="session")
def experiments():
    """Every ``repro.bench.claims`` experiment, run once and shared by the
    claims table tests and the ``experiment all`` CLI test."""
    from repro.bench.claims import EXPERIMENTS

    return {name: make() for name, make in EXPERIMENTS.items()}


@pytest.fixture(params=sorted(GPU_REGISTRY))
def any_arch(request):
    """Parametrized over every registered device."""
    return get_arch(request.param)
