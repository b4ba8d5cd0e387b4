"""Continuous-batching serving engine: FP16 vs INT4 vs INT2 under load.

The dynamic counterpart of the Fig. 13 serving comparison: one Poisson
request trace is pushed through the same device-memory budget in three
cache formats.  The reproduction contract is the paper's chain of effects
— the low-bit formats hold strictly more resident sequences and sustain
more tokens/s than FP16 — and chunked prefill (the Sarathi/vLLM
discipline) must stop long prompts head-of-line blocking decodes: the
worst inter-token stall collapses with chunking on, at identical token
totals.

The ``grouped`` section (:func:`run_grouped_bench`) pins the batched
paged-decode win at serving scale: grouping a batch of equal-shape
decode sequences into one kernel launch must beat the per-sequence loop
both on the engine's deterministic price (floor 5x at batch 8, 16k
context, INT4) and on same-machine wall clock (floor 1x).

Fast mode (CI smoke): ``SERVING_BENCH_FAST=1 pytest benchmarks/bench_serving_engine.py``.

``benchmarks/emit_serving.py`` writes the comparison as the root of
``BENCH_serving.json`` and the grouped point as its ``grouped`` section;
``scripts/check_bench_regression.py`` gates both against the committed
``benchmarks/baseline.json``.
"""

import json
import os
import time

import numpy as np

from repro.attn.protocol import get_backend
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B, get_model
from repro.serving import compare_formats, paper_serving_stacks, poisson_trace

FAST = os.environ.get("SERVING_BENCH_FAST", "") not in ("", "0")

#: The grouped-decode benchmark point: the serving batch the paper's
#: Fig. 13 stacks sustain, at the 16k context of the kernel headline.
GROUPED_BATCH = 8
GROUPED_SEQ_LEN = 16384


def bench_trace(fast):
    """The benchmark's canonical trace (seeded, so identical everywhere)."""
    n_requests, output_len = (80, 16) if fast else (96, 256)
    return poisson_trace(
        n_requests,
        rate_rps=32.0,
        prompt_len=8192,
        output_len=output_len,
        seed=0,
        prompt_jitter=0.1,
        output_jitter=0.25,
    )


def run_config(fast, prefill_chunk):
    """Everything needed to reproduce the run (the ``write_run`` manifest)."""
    return {"bench": "serving", "fast": fast, "prefill_chunk": prefill_chunk, "trace_seed": 0}


def run_serving_bench(fast=False, prefill_chunk=None):
    """One full comparison run, summarized as the BENCH_serving.json shape.

    The ``formats`` block carries the gated headline numbers (tokens/s)
    plus the TTFT/TBT percentile split the chunked-prefill knob trades
    between; ``reports`` keeps the complete per-format dump for humans.
    """
    model = LLAMA31_8B
    arch = get_arch("a100")
    trace = bench_trace(fast)
    reports = compare_formats(
        model,
        arch,
        paper_serving_stacks(model, arch),
        trace,
        prefill_chunk_tokens=prefill_chunk,
    )
    return {
        "model": model.name,
        "arch": arch.name,
        "requests": len(trace),
        "fast_mode": fast,
        "prefill_chunk_tokens": prefill_chunk,
        "formats": {
            r.format_name: {
                "tokens_per_s": r.sustained_tokens_per_s,
                "p50_ttft_s": r.p50_ttft_s,
                "p99_ttft_s": r.p99_ttft_s,
                "p50_tbt_s": r.p50_tbt_s,
                "p99_tbt_s": r.p99_tbt_s,
                "max_tbt_s": r.max_tbt_s,
                "p99_latency_s": r.p99_latency_s,
                "completed": r.completed,
                "preemptions": r.preemptions,
            }
            for r in reports
        },
        "reports": [r.to_dict() for r in reports],
    }


def run_grouped_bench(fast=False):
    """Looped-vs-grouped batched decode: the speedup the engine observes.

    Two halves, one paged-bit backend:

    - **Priced** (deterministic): before grouping, a batch of ``B``
      decode-ready sequences cost ``B`` batch-1 kernel launches per
      layer; grouping batches equal-shape sequences into ONE launch.
      The looped price is ``B`` calls to ``decode_step_ms`` at batch 1
      and the grouped price is one call with a single
      ``decode_groups=[(B, L)]`` group — both through the backend's own
      pricing surface, so the ratio is exactly what the serving engine's
      clock sees.
    - **Wall clock** (same-machine ratio): real packed pages, identical
      queries, ``decode_step`` (grouped gather + one batched tile walk)
      vs ``decode_step_looped`` (the retained per-sequence reference).
      Both paths are warmed first so the ratio compares steady-state
      decode, the regime serving lives in.
    """
    model = get_model("tiny")
    arch = get_arch("a100")
    config = BitDecodingConfig(bits=4)
    backend = get_backend("paged-bit", engine=config, arch=arch)
    batch, seq_len = GROUPED_BATCH, GROUPED_SEQ_LEN
    looped_ms = sum(backend.decode_step_ms(model, arch, 1, seq_len) for _ in range(batch))
    grouped_ms = backend.decode_step_ms(
        model, arch, batch, seq_len, decode_groups=[(batch, seq_len)]
    )

    rng = np.random.default_rng(0)
    nr = config.residual_block_size
    ctx = nr * (4 if fast else 8)
    hkv, hq, d = model.hkv, model.hq, model.head_dim
    handle = backend.new_handle(batch, hkv, d)
    k = rng.standard_normal((batch, hkv, ctx, d)).astype(np.float32)
    v = rng.standard_normal((batch, hkv, ctx, d)).astype(np.float32)
    backend.prefill(None, (k, v), handle)
    q = rng.standard_normal((batch, 1, hq, d)).astype(np.float32)

    def best_ms(step, reps=3 if fast else 5):
        step()  # warm the dequant memos and gather caches
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            step()
            times.append((time.perf_counter() - t0) * 1e3)
        return min(times)

    wall_grouped_ms = best_ms(lambda: backend.decode_step(q, handle))
    wall_looped_ms = best_ms(lambda: backend.decode_step_looped(q, handle))
    backend.release(handle)
    return {
        "model": model.name,
        "arch": arch.name,
        "bits": config.bits,
        "batch": batch,
        "seq_len": seq_len,
        "looped_step_ms": looped_ms,
        "grouped_step_ms": grouped_ms,
        "priced_speedup": looped_ms / grouped_ms,
        "wall_context_tokens": ctx,
        "wall_looped_ms": wall_looped_ms,
        "wall_grouped_ms": wall_grouped_ms,
        "wall_speedup": wall_looped_ms / wall_grouped_ms,
    }


def test_grouped_decode_recovers_kernel_speedup(run):
    """Grouping must hand the batched kernel's win to the serving clock.

    The priced ratio is deterministic (analytic latency model); the wall
    ratio is a same-machine comparison of two code paths doing identical
    math, so grouped must never lose to the loop it replaced.
    """
    point = run(run_grouped_bench, FAST)
    print(json.dumps(point, indent=2))
    # One batch-8 launch vs eight batch-1 launches at 16k/INT4 prices ~7x
    # on the a100 model; on wall clock grouping must never lose to the loop.
    assert point["priced_speedup"] >= 5.0
    assert point["wall_speedup"] >= 1.0


def test_serving_engine_formats(run):
    model = LLAMA31_8B
    arch = get_arch("a100")
    trace = bench_trace(FAST)
    n_requests = len(trace)
    reports = run(
        compare_formats, model, arch, paper_serving_stacks(model, arch), trace
    )

    summary = {
        "model": model.name,
        "arch": arch.name,
        "requests": n_requests,
        "fast_mode": FAST,
        "reports": [r.to_dict() for r in reports],
    }
    print(json.dumps(summary, indent=2))

    by_format = {r.format_name: r for r in reports}
    fp16, int4, int2 = by_format["FP16"], by_format["INT4"], by_format["INT2"]

    # More pages and more resident sequences from the same memory budget.
    assert int4.n_pages > 3 * fp16.n_pages
    assert int2.n_pages > int4.n_pages
    assert int4.peak_resident_batch > fp16.peak_resident_batch
    assert int2.peak_resident_batch >= int4.peak_resident_batch

    # The bigger resident batch translates into sustained throughput.
    assert int4.sustained_tokens_per_s > fp16.sustained_tokens_per_s
    assert int2.sustained_tokens_per_s >= int4.sustained_tokens_per_s

    # Everyone drains the trace; nothing is rejected at these sizes.
    for r in reports:
        assert r.completed == n_requests
        assert r.rejected == 0


def test_chunked_prefill_tames_tbt_tail(run):
    """Chunking on vs off, all three formats, one trace (Sarathi Fig. 1).

    Whole-prompt admission makes every resident decode wait out each
    8k-token prefill, so the TBT tail carries multi-step stalls; chunked
    prefill bounds what one step can charge.  Token totals must be
    identical — chunking reschedules work, it must not change it.
    """
    model = LLAMA31_8B
    arch = get_arch("a100")
    trace = bench_trace(FAST)

    def both():
        whole = compare_formats(
            model, arch, paper_serving_stacks(model, arch), trace
        )
        chunked = compare_formats(
            model,
            arch,
            paper_serving_stacks(model, arch),
            trace,
            prefill_chunk_tokens=512,
        )
        return whole, chunked

    whole, chunked = run(both)
    for off, on in zip(whole, chunked):
        assert off.format_name == on.format_name
        assert on.total_generated_tokens == off.total_generated_tokens
        assert on.completed == off.completed
        assert on.mixed_steps > 0
        # The worst stall collapses for every format: whole-prompt
        # admission charges multi-second prefill gaps to residents, a
        # mixed step never charges more than one token quantum.
        assert on.max_tbt_s < off.max_tbt_s
        print(
            f"{off.format_name}: max TBT {off.max_tbt_s * 1e3:.1f} ms -> "
            f"{on.max_tbt_s * 1e3:.1f} ms, p99 TBT {off.p99_tbt_s * 1e3:.1f} ms -> "
            f"{on.p99_tbt_s * 1e3:.1f} ms, p99 TTFT {off.p99_ttft_s:.2f} s -> "
            f"{on.p99_ttft_s:.2f} s"
        )
    # FP16 is the page-constrained format, so its admissions spread through
    # the decode phase and the stalls land inside the p99 — the full
    # percentile tail collapses, not just the max.
    assert chunked[0].p99_tbt_s < whole[0].p99_tbt_s
    # Chunked admission still gates on the page budget: the low-bit
    # formats hold strictly more residents, as in whole-prompt mode.
    assert chunked[1].peak_resident_batch > chunked[0].peak_resident_batch
    assert chunked[2].peak_resident_batch >= chunked[1].peak_resident_batch
