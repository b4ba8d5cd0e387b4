"""Host milliseconds per scheduler step as context and queue depth grow.

Report only: prints one row per point and gates on nothing.  Every point
is the analytical LLaMA-3.1-8B INT4 engine of the ``cluster_scale``
workload (A100, tp=2, 64-token pages, 512-token chunked prefill, prefix
cache on) over a burst whose prompts share half their tokens in two
groups: 8 requests at 4K, 32K and 128K context, then 10^2, 10^3 and 10^4
4K requests queued at once.  A point runs its trace to the end or to
``STEPS`` steps and divides the wall time by the steps it ran.  The
decoder axis runs the same engine over 16, 128 and 384 requests of 256
prompt and 256 output tokens, all arriving at once, to the end, and
divides the wall time by the tokens generated: the host cost a decoder
adds to a step, which the 384 / 16 ratio shows falling as the batch
grows.  Last comes the host cost of one ``BitDecoding.decode_time_ms``
miss: a fresh engine prices 2 000 batch-1 lengths of LLaMA-3.1-8B at
tp=2, each new.  Then the same lengths through
``BitDecoding.fill_group_class``, the way engine steps price them: one
call per tile class fills all its lengths, and the line divides the time
by the lengths filled.  Every point and both per-length lines are the
best of ``REPEATS`` fresh runs, since a shared host's noise only ever
adds time.

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
REPEATS = 3
POINTS = [  # (label, requests, context tokens)
    ("context 4K", 8, 4096),
    ("context 32K", 8, 32768),
    ("context 128K", 8, 131072),
    ("queue 10^2", 100, 4096),
    ("queue 10^3", 1000, 4096),
    ("queue 10^4", 10000, 4096),
]
DECODERS = (16, 128, 384)
MISS_LENGTHS = 2000


def timed_run(n_requests: int, context: int, output: int) -> tuple:
    """``(report, wall seconds)`` of one fresh engine over a burst of
    ``n_requests`` requests of ``context`` prompt and ``output`` output
    tokens."""
    kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), "a100")
    fmt = int_format(4, LLAMA31_8B, residual_window=64)
    config = EngineConfig(
        LLAMA31_8B, kernel.arch, fmt, attention=kernel, prefill_chunk_tokens=512,
        prefix_cache=True, tp=2, n_gpus=2, max_steps=STEPS,
    )
    trace = poisson_trace(
        n_requests, 1e9, context, output, seed=0, shared_prefix_fraction=0.5, prefix_groups=2
    )
    engine = ContinuousBatchingEngine(config, trace)
    start = time.perf_counter()
    report = engine.run()
    return report, time.perf_counter() - start


def ms_per_step(n_requests: int, context: int) -> tuple:
    report, wall = timed_run(n_requests, context, 32)
    steps = report.prefill_steps + report.decode_steps - report.mixed_steps
    return steps, 1e3 * wall / steps


def us_per_token(n_decoders: int) -> tuple:
    report, wall = timed_run(n_decoders, 256, 256)
    return report.total_generated_tokens, 1e6 * wall / report.total_generated_tokens


def best(run, *args):
    """The fastest of ``REPEATS`` fresh runs of ``run(*args)`` (its last
    element is the time)."""
    return min((run(*args) for _ in range(REPEATS)), key=lambda r: r[-1])


def us_per_miss() -> tuple:
    kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), "a100")
    geoms = [LLAMA31_8B.attention_geometry(1, 4096 + i, tp=2) for i in range(MISS_LENGTHS)]
    start = time.perf_counter()
    for geom in geoms:
        kernel.decode_time_ms(geom)
    return (1e6 * (time.perf_counter() - start) / MISS_LENGTHS,)


def us_per_filled_length() -> tuple:
    kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), "a100")
    start = time.perf_counter()
    for seq_len in range(4096, 4096 + MISS_LENGTHS, kernel.config.tile_n):
        kernel.fill_group_class(LLAMA31_8B, 2, 1, seq_len)  # a new tile class each
    elapsed = time.perf_counter() - start
    return (1e6 * elapsed / len(kernel.group_memo(LLAMA31_8B, 2)),)


def main() -> None:
    print(f"{'point':<14} {'steps':>6} {'ms/step':>9}")
    ms = {}
    for label, n_requests, context in POINTS:
        steps, ms[label] = best(ms_per_step, n_requests, context)
        print(f"{label:<14} {steps:>6} {ms[label]:>9.3f}")
    print(f"128K / 4K ms per step: {ms['context 128K'] / ms['context 4K']:.2f}x")
    print(f"10^3 / 10^2 ms per step: {ms['queue 10^3'] / ms['queue 10^2']:.2f}x")
    print(f"{'decoders':<14} {'tokens':>6} {'us/token':>9}")
    us = {}
    for n_decoders in DECODERS:
        tokens, us[n_decoders] = best(us_per_token, n_decoders)
        print(f"{n_decoders:<14} {tokens:>6} {us[n_decoders]:>9.3f}")
    print(f"384 / 16 us per token: {us[384] / us[16]:.2f}x")
    print(f"us per decode_time_ms miss: {best(us_per_miss)[0]:.1f}")
    print(f"us per length, class fill: {best(us_per_filled_length)[0]:.2f}")


if __name__ == "__main__":
    main()
