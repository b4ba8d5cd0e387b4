"""Per-layer metrics of one traced repeat, derived from its spans.

Times come from span self times (see :func:`tracing.self_times`), counts
from the spans themselves — measured at the layer boundary where the work
happens.  Counters the engine already reports (steps, swap-outs, heals)
are merged in by ``run.py`` from the workload's summary instead.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import COUNT, END, LAYER, NAME, PARENT, START, Tracer, self_times

from repro.model.inference import decode_step_breakdown, mixed_step_breakdown

#: Pricing calls re-priced into components after a traced run.
REPRICED_CALLS = 48


def _p99(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def span_metrics(spans: List[list], wall_s: float, slowdown: float = 1.0) -> Dict[str, float]:
    """Every per-layer metric the spans of one timed region determine.

    ``wall_s`` is the region's host time as the spans saw it; every
    ``*_ms`` is divided by ``slowdown``, the host slowdown in force around
    the region, like the end-to-end times (see ``calibration.py``).
    """
    to_ms = 1e3 / slowdown

    def _ms(span) -> float:
        return (span[END] - span[START]) * to_ms

    selfs = self_times(spans)
    out = {f"{layer}.self_ms": seconds * to_ms for layer, seconds in selfs.items()}
    out["trace.coverage_share"] = sum(selfs.values()) / wall_s

    by_name: Dict[str, List[int]] = {}
    by_layer: Dict[str, List[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        by_layer.setdefault(span[LAYER], []).append(i)

    def named(*names: str) -> List[int]:
        return sorted(i for name in names for i in by_name.get(name, ()))

    out["model.pricing.calls"] = len(by_layer.get("model.pricing", ()))
    out["gpu.simulate_kernel.calls"] = len(by_layer.get("gpu.simulate_kernel", ()))
    table = by_layer.get("pages.table", ())
    out["pages.table.calls"] = len(table)
    out["pages.pool_used_peak_share"] = max((spans[i][COUNT] for i in table), default=0.0)

    # Walk each dequantization up to the paged-cache read that caused it;
    # a read with none under it was served by the memo.
    reads = set(named("PagedBitKVCache.dequant_group", "PagedBitKVCache.dequant_seq"))
    missed, pages = set(), 0.0
    for i in named("PackedBlockBatch.dequant_kv"):
        read = i
        while read >= 0 and read not in reads:
            read = spans[read][PARENT]
        if read >= 0:
            missed.add(read)
            pages += spans[i][COUNT]
    out["attn.paged.dequant_pages"] = pages
    out["attn.paged.memo_hit_share"] = 1.0 - len(missed) / len(reads) if reads else 0.0

    batches = set(named("ModelRunner.decode_batch"))
    if batches:
        durations = [_ms(spans[i]) for i in batches]
        out["attn.runner.decode_batch_ms_p50"] = statistics.median(durations)
        out["attn.runner.decode_batch_ms_p99"] = _p99(durations)
        grouped = [
            spans[i][COUNT]
            for i in named("TinyTransformer.decode_step")
            if spans[i][PARENT] in batches
        ]
        out["attn.runner.group_size_mean"] = statistics.mean(grouped)

    # kernel_longctx: the benchmark's own loop is the top level, one
    # append + one decode per step.
    appends = [i for i in named("BitKVCache.append_token") if spans[i][PARENT] < 0]
    decodes = [i for i in named("BitDecoding.decode") if spans[i][PARENT] < 0]
    if appends and len(appends) == len(decodes):
        flushing = {spans[i][PARENT] for i in named("flush_blocks")}
        steps = [_ms(spans[a]) + _ms(spans[d]) for a, d in zip(appends, decodes)]
        flushed = [n for n, a in enumerate(appends) if a in flushing]
        steady = [t for n, t in enumerate(steps) if n and n not in flushed]
        out["core.prefill_pack_ms"] = sum(_ms(spans[i]) for i in named("BitDecoding.prefill"))
        out["core.first_step_ms"] = steps[0]
        out["core.steady_step_ms_p50"] = statistics.median(steady)
        out["core.steady_step_ms_p99"] = _p99(steady)
        out["core.flush_step_ms"] = statistics.mean(steps[n] for n in flushed) if flushed else 0.0
    return out


def modeled_shares(tracer: Tracer) -> Dict[str, float]:
    """Weights/attention/comm/overhead share of the modeled step time.

    Re-prices an evenly spaced sample of the calls captured at the
    pricing seam through the public breakdown functions, so the figure
    survives a change to how ``decode_step_ms`` computes its total.
    """
    kept = tracer.kept
    if not kept:
        return {}
    stride = max(1, len(kept) // REPRICED_CALLS)
    parts = dict.fromkeys(("weights_ms", "attention_ms", "comm_ms", "overhead_ms"), 0.0)
    for name, args, kwargs in kept[::stride]:
        backend, model, arch, *rest = args
        price = mixed_step_breakdown if name.endswith("mixed_step_ms") else decode_step_breakdown
        priced = price(model, arch, backend.attention_system, *rest, **kwargs)
        for part in parts:
            parts[part] += getattr(priced, part)
    total = sum(parts.values())
    return {f"model.sim.{part}_share": value / total for part, value in parts.items()}
