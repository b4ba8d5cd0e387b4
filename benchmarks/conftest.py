"""Benchmark-suite configuration.

What is left here is host-clock measurement: ``bench_kernel_hotpath.py``
(a report-only script that doubles as a small-geometry pytest smoke under
``pytest-benchmark`` timing) and the calibrated end-to-end ledger under
``e2e/``.  Every modeled number — the paper's figures and tables and the
``serving-*`` experiments — is a row of ``repro.bench.claims.CLAIMS``
(``python -m repro experiment all``).  Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest


def run_experiment(benchmark, fn, *args, **kwargs):
    """Benchmark one experiment function and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def run(benchmark):
    """Fixture wrapping :func:`run_experiment` for terse benchmark bodies."""

    def _run(fn, *args, **kwargs):
        return run_experiment(benchmark, fn, *args, **kwargs)

    return _run
