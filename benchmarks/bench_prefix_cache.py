"""Prefix caching under load: hit rate and throughput on a shared-prefix trace.

The serving argument for the radix-style prefix cache: when every request
in a family opens with the same system prompt, page-aligned packed blocks
of that prefix are prefilled once and mapped (refcount-shared, CoW) into
every later admission — prefill compute drops by the hit rate and the
shared pages stretch the pool's effective capacity.  This benchmark runs
one seeded half-shared trace through the INT4 stack with the cache on and
off and emits the gated point.

Fast mode (CI smoke): ``SERVING_BENCH_FAST=1 pytest benchmarks/bench_prefix_cache.py``.

``benchmarks/emit_serving.py`` writes the point as the ``prefix_cache``
section of ``BENCH_serving.json``; ``scripts/check_bench_regression.py``
gates it (min hit rate, cache-on never slower).
"""

import json
import os

from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.serving import compare_formats, paper_serving_stacks, poisson_trace

FAST = os.environ.get("SERVING_BENCH_FAST", "") not in ("", "0")

#: Half of every prompt is a family-shared prefix; two families keep the
#: cache honest about key separation.
SHARED_FRACTION = 0.5
PREFIX_GROUPS = 2


def bench_trace(fast):
    """Seeded shared-prefix trace: identical on every machine."""
    n_requests, output_len = (48, 16) if fast else (96, 128)
    return poisson_trace(
        n_requests,
        rate_rps=32.0,
        prompt_len=8192,
        output_len=output_len,
        seed=0,
        output_jitter=0.25,
        shared_prefix_fraction=SHARED_FRACTION,
        prefix_groups=PREFIX_GROUPS,
    )


def run_config(fast):
    """Everything needed to reproduce the run (the ``write_run`` manifest)."""
    return {
        "bench": "prefix_cache",
        "fast": fast,
        "trace_seed": 0,
        "shared_prefix_fraction": SHARED_FRACTION,
        "prefix_groups": PREFIX_GROUPS,
    }


def _int4_stack(model, arch):
    return [s for s in paper_serving_stacks(model, arch) if s[0].name == "INT4"]


def run_prefix_bench(fast=False):
    """Cache on vs off over one trace, summarized as the gated section."""
    model = LLAMA31_8B
    arch = get_arch("a100")
    trace = bench_trace(fast)
    stack = _int4_stack(model, arch)
    on = compare_formats(model, arch, stack, trace, prefix_cache=True)[0]
    off = compare_formats(model, arch, stack, trace)[0]
    return {
        "model": model.name,
        "arch": arch.name,
        "requests": len(trace),
        "fast_mode": fast,
        "shared_prefix_fraction": SHARED_FRACTION,
        "prefix_groups": PREFIX_GROUPS,
        "hit_rate": on.prefix_hit_rate,
        "hit_tokens": on.prefix_hit_tokens,
        "probe_tokens": on.prefix_probe_tokens,
        "evictions": on.prefix_evictions,
        "shared_pages_peak": on.shared_pages_peak,
        "n_pages": on.n_pages,
        "effective_capacity_pages": on.effective_capacity_pages,
        "tokens_per_s_on": on.sustained_tokens_per_s,
        "tokens_per_s_off": off.sustained_tokens_per_s,
        "report_on": on.to_dict(),
        "report_off": off.to_dict(),
    }


def test_prefix_cache_serving_point(run):
    point = run(run_prefix_bench, FAST)
    print(json.dumps({k: v for k, v in point.items() if not k.startswith("report_")},
                     indent=2))
    # The gate's qualitative shape: real hits, never slower, more capacity.
    assert point["hit_rate"] >= 0.25
    assert point["tokens_per_s_on"] >= point["tokens_per_s_off"]
    assert point["effective_capacity_pages"] > point["n_pages"]
    # On/off is a scheduling change, not a workload change.
    on, off = point["report_on"], point["report_off"]
    assert on["total_generated_tokens"] == off["total_generated_tokens"]
    assert on["completed"] == off["completed"]
