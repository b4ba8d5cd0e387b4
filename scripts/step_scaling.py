"""Host milliseconds per scheduler step as context and queue depth grow.

Report only: prints one row per point and gates on nothing.  Every point
is the analytical LLaMA-3.1-8B INT4 engine of the ``cluster_scale``
workload (A100, tp=2, 64-token pages, 512-token chunked prefill, prefix
cache on) over a burst whose prompts share half their tokens in two
groups: 8 requests at 4K, 32K and 128K context, then 10^2 and 10^3 4K
requests queued at once.  A point runs its trace to the end or to
``STEPS`` steps and divides the wall time by the steps it ran.

    PYTHONPATH=src python scripts/step_scaling.py
"""

from __future__ import annotations

import time

from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import poisson_trace

STEPS = 2200
POINTS = [  # (label, requests, context tokens)
    ("context 4K", 8, 4096),
    ("context 32K", 8, 32768),
    ("context 128K", 8, 131072),
    ("queue 10^2", 100, 4096),
    ("queue 10^3", 1000, 4096),
]


def ms_per_step(n_requests: int, context: int) -> tuple:
    kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), "a100")
    fmt = int_format(4, LLAMA31_8B, residual_window=64)
    config = EngineConfig(
        LLAMA31_8B, kernel.arch, fmt, attention=kernel, prefill_chunk_tokens=512,
        prefix_cache=True, tp=2, n_gpus=2, max_steps=STEPS,
    )
    trace = poisson_trace(
        n_requests, 1e9, context, 32, seed=0, shared_prefix_fraction=0.5, prefix_groups=2
    )
    engine = ContinuousBatchingEngine(config, trace)
    start = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - start
    steps = report.prefill_steps + report.decode_steps - report.mixed_steps
    return steps, 1e3 * wall / steps


def main() -> None:
    print(f"{'point':<14} {'steps':>6} {'ms/step':>9}")
    ms = {}
    for label, n_requests, context in POINTS:
        steps, ms[label] = ms_per_step(n_requests, context)
        print(f"{label:<14} {steps:>6} {ms[label]:>9.3f}")
    print(f"128K / 4K ms per step: {ms['context 128K'] / ms['context 4K']:.2f}x")


if __name__ == "__main__":
    main()
