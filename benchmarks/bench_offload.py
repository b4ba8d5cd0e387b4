"""Tiered KV offload under pressure: swap vs recompute on one device budget.

The offload argument: when the decode working set outgrows the device
tier, paying PCIe traffic to park packed pages on the host and pull them
back (``preemption="swap"``) must beat throwing the victim's KV away and
replaying its prefill (``preemption="recompute"``) on the *same* device
page budget.  This benchmark executes one seeded over-capacity trace
through the INT4 paged stack both ways — real tokens, real page
migrations — and emits the gated point.

Fast mode (CI smoke): ``SERVING_BENCH_FAST=1 pytest benchmarks/bench_offload.py``.

``benchmarks/emit_serving.py`` writes the point as the ``offload`` section
of ``BENCH_serving.json``; ``scripts/check_bench_regression.py`` gates it
(swap strictly faster than recompute, floor on the speedup).
"""

import json
import os

from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import ContinuousBatchingEngine, poisson_trace
from repro.serving.crosscheck import int4_stack

FAST = os.environ.get("SERVING_BENCH_FAST", "") not in ("", "0")

#: The device tier; both disciplines get exactly this many device pages.
DEVICE_PAGES = 8


def _geometry(fast):
    """(n_requests, prompt_len, output_len, host_pages).

    Short prompts overcommit recompute admission (it reserves prompt
    pages only) and long outputs then grow every context well past it —
    the regime where recompute preempt-thrashes with ever-costlier
    replays while swap pays a few pages of PCIe per victim.
    """
    if fast:
        return 8, 64, 120, 48
    return 16, 64, 120, 96


def bench_trace(fast):
    """Near-simultaneous arrivals, identical on every machine."""
    n_requests, prompt_len, output_len, _ = _geometry(fast)
    return poisson_trace(
        n_requests, rate_rps=100000.0, prompt_len=prompt_len, output_len=output_len, seed=3
    )


def run_config(fast):
    """Everything needed to reproduce the run (the ``write_run`` manifest)."""
    n_requests, prompt_len, output_len, host_pages = _geometry(fast)
    return {
        "bench": "offload",
        "fast": fast,
        "trace_seed": 3,
        "requests": n_requests,
        "prompt_len": prompt_len,
        "output_len": output_len,
        "device_pages": DEVICE_PAGES,
        "host_pages": host_pages,
    }


def run_offload_bench(fast=False):
    """Swap vs recompute at one device budget, summarized as the gated point."""
    arch = get_arch("a100")
    n_requests, prompt_len, output_len, host_pages = _geometry(fast)
    trace = bench_trace(fast)
    stack = int4_stack(TINY, arch)
    swap_config = stack.config(
        True, max_batch=32, preemption="swap", device_pages=DEVICE_PAGES, host_pages=host_pages
    )
    recompute_config = stack.config(True, max_batch=32, n_pages=DEVICE_PAGES)
    swap = ContinuousBatchingEngine(swap_config, trace).run()
    recompute = ContinuousBatchingEngine(recompute_config, trace).run()
    speedup = (
        swap.sustained_tokens_per_s / recompute.sustained_tokens_per_s
        if recompute.sustained_tokens_per_s
        else 0.0
    )
    return {
        "model": TINY.name,
        "arch": arch.name,
        "requests": n_requests,
        "prompt_len": prompt_len,
        "output_len": output_len,
        "fast_mode": fast,
        "device_pages": DEVICE_PAGES,
        "host_pages": host_pages,
        "tokens_per_s_swap": swap.sustained_tokens_per_s,
        "tokens_per_s_recompute": recompute.sustained_tokens_per_s,
        "swap_speedup": speedup,
        "swap_outs": swap.swap_outs,
        "swap_ins": swap.swap_ins,
        "offload_faults": swap.offload_faults,
        "offload_stall_s": swap.offload_stall_s,
        "offload_overlapped_s": swap.offload_overlapped_s,
        "offload_d2h_bytes": swap.offload_d2h_bytes,
        "offload_h2d_bytes": swap.offload_h2d_bytes,
        "recompute_preemptions": recompute.preemptions,
        "report_swap": swap.to_dict(),
        "report_recompute": recompute.to_dict(),
    }


def test_offload_serving_point(run):
    point = run(run_offload_bench, FAST)
    print(json.dumps({k: v for k, v in point.items() if not k.startswith("report_")}, indent=2))
    # The gate's qualitative shape: real pressure, real swaps, swap wins.
    assert point["swap_outs"] > 0
    assert point["recompute_preemptions"] > 0
    assert point["tokens_per_s_swap"] > point["tokens_per_s_recompute"]
    # Both disciplines finish the same workload.
    on, off = point["report_swap"], point["report_recompute"]
    assert on["total_generated_tokens"] == off["total_generated_tokens"]
    assert on["completed"] == off["completed"]
    assert on["executed_tokens"] == on["total_generated_tokens"]
