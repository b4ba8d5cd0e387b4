#!/usr/bin/env python
"""Benchmark regression gate: one table of bounds over the benchmark ledger.

Compares a freshly emitted ``BENCH_serving.json`` (see
``benchmarks/emit_serving.py``) against the committed
``benchmarks/baseline.json``, and — with ``--kernels BENCH_kernels.json``
(see ``benchmarks/bench_kernel_hotpath.py``) — gates the kernel hot-path
point as a ``kernels`` section of the same document.

Every check is one row of ``CHECKS``: ``(section, metric, op, bound,
show, why)``.  A bound is a constant floor or ceiling, another metric of
the same section (a strict ordering such as swap > recompute), or
``BelowBaseline(f)`` — the baseline's value for the metric less the
fraction ``f``.  Rows with no ``op`` are report-only.  The table is the
**only** place a bound is declared: ``baseline.json`` holds measurements,
so refreshing it cannot move a bound, and there are no flags to pass.  To
change a bound, edit its row.

The rules every row shares, stated once:

- a metric that is missing or not a number fails its gated rows (it never
  crashes the gate, and never passes by default);
- a section the baseline records is mandatory in the current results;
  a section the baseline lacks is still gated when the current file has it;
- every value is printed with its unit, its bound and — where the
  baseline records the metric — its drift, gated or not.

The serving simulation is deterministic (seeded traces, analytic latency
model), so baseline-relative drift is a real code change, not machine
noise.  The wall-clock rows (``grouped.wall_speedup``, all of ``kernels``)
are same-machine ratios of two code paths, stable across runner hardware
where absolute milliseconds are not; they are floors, never compared
against another machine's recording.

Exit status is non-zero on any gated failure, which is what CI's ``bench``
job gates on.  When a throughput change is intentional, refresh the
baseline with the emitter itself::

    python benchmarks/emit_serving.py --fast --out benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from typing import NamedTuple

OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


class BelowBaseline(float):
    """A bound at the baseline's value for the same metric, less this fraction."""


class Check(NamedTuple):
    section: str  # document key; "formats.*" = each format the baseline records
    metric: str  # dotted path inside the section
    op: str | None  # key of OPS; None = report only
    bound: float | str | None  # constant, BelowBaseline, or another metric's path
    show: str  # format of the value, with its unit
    why: str  # what a violation means (report-only rows: why not gated)


# fmt: off
CHECKS = (
    Check("formats.*", "tokens_per_s", ">=", BelowBaseline(0.10), "{:.1f} tok/s",
          "sustained decode throughput regressed on the seeded trace"),
    Check("formats.*", "p99_tbt_s", None, None, "{:.4f} s",
          "the chunked-prefill knob deliberately trades TBT against TTFT"),
    Check("formats.*", "p99_ttft_s", None, None, "{:.2f} s",
          "traded against TBT, see above"),
    Check("prefix_cache", "hit_rate", ">=", 0.25, "{:.3f}",
          "admission stopped probing, keys stopped matching, or eviction got too eager "
          "on the half-shared trace"),
    Check("prefix_cache", "tokens_per_s_on", ">=", "tokens_per_s_off", "{:.1f} tok/s",
          "cache-on fell below cache-off; hits must only remove prefill work"),
    Check("prefix_cache", "effective_capacity_pages", None, None, "{:.0f} pages",
          "follows from the hit rate"),
    Check("offload", "swap_outs", ">", 0, "{:.0f}",
          "the over-capacity trace never swapped; the working-set discipline is not "
          "demoting under pressure"),
    Check("offload", "tokens_per_s_swap", ">", "tokens_per_s_recompute", "{:.1f} tok/s",
          "migration costs more than the replays it avoids at the same device page budget"),
    Check("offload", "swap_speedup", ">=", 1.0, "{:.3f}x",
          "swap lost its edge over recompute"),
    Check("offload", "offload_stall_s", None, None, "{:.3e} s",
          "already priced into tokens_per_s_swap"),
    Check("grouped", "priced_speedup", ">=", 5.0, "{:.2f}x",
          "decode is no longer launching one kernel per equal-shape group "
          "(engine-priced at batch 8, deterministic)"),
    Check("grouped", "wall_speedup", ">=", 1.0, "{:.2f}x",
          "grouped decode_step lost to the per-sequence loop it replaced "
          "(same-machine wall-clock ratio)"),
    Check("chaos", "transfer_retries", ">", 0, "{:.0f}",
          "the committed fault plan was not exercised; injection is not reaching the tier store"),
    Check("chaos", "healed_pages", ">", 0, "{:.0f}",
          "the committed fault plan was not exercised; no lost or corrupt page was healed"),
    Check("chaos", "failed", "<=", 0, "{:.0f}",
          "requests ended FAILED; recovery is exhausting its heal budget on the committed plan"),
    Check("chaos", "goodput_ratio", ">=", 0.40, "{:.3f}x",
          "surviving the plan plus deadline shedding costs too much of fault-free throughput"),
    Check("chaos", "shed", None, None, "{:.0f}",
          "deadline-policy outcome, already inside goodput_ratio"),
    Check("cluster", "affinity_speedup", ">=", 1.10, "{:.3f}x",
          "prefix-affinity routing is not beating round-robin; groups stopped staying on "
          "the replica whose cache holds their pages"),
    Check("cluster", "cross_replica_misses_prefix_affinity", "<=", 0, "{:.0f}",
          "the routing hash is no longer keeping prefix groups home"),
    Check("cluster", "tp.allreduce_tax_ms", ">", 0.0, "{:.4f} ms",
          "the interconnect term dropped out of the sharded decode step"),
    Check("cluster", "tp.rank_attention_ms", "<", "tp.full_attention_ms", "{:.4f} ms",
          "head sharding stopped shrinking the attention kernel"),
    # Decode floor ratcheted 10x -> 25x when the tile walk was fused; the
    # prefill floor arrived with the chunked fused flush.
    Check("kernels", "speedup_decode_step", ">=", 25.0, "{:.1f}x",
          "the vectorized decode step lost its lead over the per-block reference"),
    Check("kernels", "speedup_prefill_pack", ">=", 3.0, "{:.1f}x",
          "vectorized whole-prompt quantize+pack lost its lead over the per-block reference"),
    Check("kernels", "decode_step_flatness", "<=", 2.0, "{:.2f}",
          "decode step time grows across no-flush steps; the dequant memo is being "
          "invalidated or rebuilt"),
    Check("kernels", "transformer.engine_step_ms", None, None, "{:.1f} ms",
          "absolute milliseconds are not stable across runners"),
    Check("kernels", "transformer.exact_step_ms", None, None, "{:.1f} ms",
          "absolute milliseconds, as above"),
)
# fmt: on


def _get(doc, path: str):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def _num(doc, path: str) -> float | None:
    value = _get(doc, path)
    return value if isinstance(value, (int, float)) else None


def _show(value: float | None, show: str) -> str:
    return "n/a" if value is None else show.format(value)


def _instances(section: str, baseline: dict) -> list[str]:
    if not section.endswith(".*"):
        return [section]
    parent = section[:-2]
    return [f"{parent}.{name}" for name in sorted(_get(baseline, parent) or {})]


def _check(path: str, check: Check, cur: dict, base: dict) -> list[str]:
    """Print one row; return its failure (empty list = pass or report-only)."""
    value, reference = _num(cur, check.metric), _num(base, check.metric)
    if isinstance(check.bound, BelowBaseline):
        bound = None if reference is None else reference * (1.0 - check.bound)
        gate = f"{check.op} baseline {_show(reference, check.show)} less {check.bound:.0%}"
    elif isinstance(check.bound, str):
        bound = _num(cur, check.bound)
        gate = f"{check.op} {check.bound} {_show(bound, check.show)}"
    else:
        bound = check.bound
        gate = f"{check.op} {_show(bound, check.show)}"
    drift = ""
    if value is not None and reference:
        drift = f", {(value / reference - 1.0) * 100.0:+.1f}% vs baseline"
    if check.op is None:
        print(f"{path}: {check.metric} {_show(value, check.show)}{drift} [not gated: {check.why}]")
        return []
    print(f"{path}: {check.metric} {_show(value, check.show)} ({gate}{drift})")
    if value is None or bound is None or not OPS[check.op](value, bound):
        return [f"{path}: {check.metric} {_show(value, check.show)} is not {gate}; {check.why}"]
    return []


def evaluate(current: dict, baseline: dict) -> list[str]:
    """Print every row of ``CHECKS``; return the gated failures (empty = pass)."""
    failures: list[str] = []
    for section in dict.fromkeys(check.section for check in CHECKS):
        for path in _instances(section, baseline):
            cur, base = _get(current, path), _get(baseline, path)
            if not isinstance(cur, dict):
                if base is not None:
                    failures.append(f"{path}: missing from current results")
                continue
            for check in CHECKS:
                if check.section == section:
                    failures += _check(path, check, cur, base if isinstance(base, dict) else {})
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_serving.json")
    parser.add_argument("baseline", help="committed benchmarks/baseline.json")
    parser.add_argument("--kernels", help="fresh BENCH_kernels.json, gated as the kernels section")
    args = parser.parse_args(argv)
    with open(args.current) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    if args.kernels:
        with open(args.kernels) as fh:
            current["kernels"] = json.load(fh)
    failures = evaluate(current, baseline)
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print("benchmark gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
