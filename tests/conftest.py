"""Shared fixtures for the BitDecoding reproduction test suite."""

import numpy as np
import pytest

from repro.gpu.arch import GPU_REGISTRY, get_arch


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
