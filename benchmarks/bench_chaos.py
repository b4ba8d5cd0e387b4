"""Fault injection under deadline pressure: what recovery costs in goodput.

The robustness argument: on the committed chaos plan (seeded transfer
faults, lost pages, corruption, latency spikes and slow steps over the
swap-tiered INT4 stack, with a per-request deadline), the engine must
recover *everything it keeps* — zero FAILED requests, every lost or
corrupt page healed by bit-exact replay — and the goodput it still
delivers must stay a bounded fraction of the fault-free run's throughput.
This benchmark executes the same seeded trace twice — once under the
demo fault plan with a deadline policy, once fault-free best-effort —
and emits the gated point.

Fast mode (CI smoke): ``SERVING_BENCH_FAST=1 pytest benchmarks/bench_chaos.py``.

``benchmarks/emit_serving.py`` writes the point as the ``chaos`` section of
``BENCH_serving.json``; ``scripts/check_bench_regression.py`` gates it
(plan exercised, zero failed requests, goodput ratio above the floor).
"""

import json
import os

from repro.faults import demo_fault_spec
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import DeadlinePolicy, poisson_trace
from repro.serving.crosscheck import crosscheck, int4_stack

FAST = os.environ.get("SERVING_BENCH_FAST", "") not in ("", "0")

#: The committed demo plan: seed, tier geometry, batch cap and deadline
#: are tuned together so the plan actually exercises a retry, a heal and
#: a shed while recovery still succeeds for everything that stays.
CHAOS_SEED = 7
DEVICE_PAGES, HOST_PAGES = 8, 28
MAX_BATCH = 3
DEADLINE_MS = 6.0
AUDIT_EVERY = 10
TRACE = dict(n_requests=8, rate_rps=100000.0, prompt_len=40, output_len=60, seed=3)


def bench_trace():
    """Near-simultaneous arrivals, identical on every machine."""
    return poisson_trace(**TRACE)


def run_config(fast):
    """Everything needed to reproduce the run (the ``write_run`` manifest)."""
    return {
        "bench": "chaos",
        "fast": fast,
        "chaos_seed": CHAOS_SEED,
        "deadline_ms": DEADLINE_MS,
        "audit_every": AUDIT_EVERY,
        "device_pages": DEVICE_PAGES,
        "host_pages": HOST_PAGES,
        "max_batch": MAX_BATCH,
        "trace": TRACE,
    }


def run_chaos_bench(fast=False):
    """Chaos vs fault-free on the committed plan, summarized as the gated point."""
    arch = get_arch("a100")
    result = crosscheck(
        int4_stack(TINY, arch),
        bench_trace(),
        faults=demo_fault_spec(CHAOS_SEED),
        deadline_policy=DeadlinePolicy(default_deadline_s=DEADLINE_MS * 1e-3),
        audit_every=AUDIT_EVERY,
        max_batch=MAX_BATCH,
        preemption="swap",
        device_pages=DEVICE_PAGES,
        host_pages=HOST_PAGES,
    )
    chaos, fault_free = result.reports["executed"], result.reports["fault_free"]
    # Fault-free best-effort means every token is goodput; the ratio is
    # "what fraction of a healthy machine's useful throughput survives
    # the committed fault plan plus its deadline discipline".
    goodput_ratio = (
        chaos.goodput_tokens_per_s / fault_free.sustained_tokens_per_s
        if fault_free.sustained_tokens_per_s
        else 0.0
    )
    return {
        "model": TINY.name,
        "arch": arch.name,
        "fast_mode": fast,
        "chaos_seed": CHAOS_SEED,
        "deadline_ms": DEADLINE_MS,
        "device_pages": DEVICE_PAGES,
        "host_pages": HOST_PAGES,
        "max_batch": MAX_BATCH,
        **{k: v for k, v in TRACE.items() if k != "rate_rps"},
        "rate_rps": TRACE["rate_rps"],
        "goodput_tokens_per_s": chaos.goodput_tokens_per_s,
        "tokens_per_s_fault_free": fault_free.sustained_tokens_per_s,
        "goodput_ratio": goodput_ratio,
        "transfer_retries": chaos.transfer_retries,
        "retry_backoff_s": chaos.retry_backoff_s,
        "lost_pages": chaos.lost_pages,
        "checksum_failures": chaos.checksum_failures,
        "healed_pages": chaos.healed_pages,
        "healed_requests": chaos.healed_requests,
        "slow_steps": chaos.slow_steps,
        "shed": chaos.shed,
        "timed_out": chaos.timed_out,
        "failed": chaos.failed,
        "completed": chaos.completed,
        "deadline_met": chaos.deadline_met,
        "audits": chaos.audits,
        "checks": result.checks,
        "report_chaos": chaos.to_dict(),
        "report_fault_free": fault_free.to_dict(),
    }


def test_chaos_serving_point(run):
    point = run(run_chaos_bench, FAST)
    print(json.dumps({k: v for k, v in point.items() if not k.startswith("report_")}, indent=2))
    # The gate's qualitative shape: the plan bites (retry, heal, shed all
    # exercised), recovery holds (schedule parity, nothing FAILED, decodes
    # bit-identical to the fault-free run) — the library's verdicts.
    assert all(point["checks"].values()), point["checks"]
    assert point["goodput_ratio"] > 0.0
    assert point["report_fault_free"]["completed"] == TRACE["n_requests"]
