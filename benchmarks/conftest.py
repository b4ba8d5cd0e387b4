"""Benchmark-suite configuration.

What lives here are the serving and kernel benches: each ``bench_*.py``
measures one section of the gated ledger (``emit_serving.py`` /
``bench_kernel_hotpath.py`` write it) and doubles as a pytest smoke that
runs its point once under ``pytest-benchmark`` timing.  The paper's
figures and tables are not here: they are rows of
``repro.bench.claims.CLAIMS`` (``python -m repro experiment all``).  Run
with::

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
