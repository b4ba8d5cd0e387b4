"""Serving experiments: the engine, page layer and router under seeded traces.

The dynamic counterpart of the paper's serving evidence (Figs. 12b / 13:
lower bits -> more pages from the same memory -> more resident sequences
-> more tokens/s).  Each function is zero-argument and seeded — it *is*
its configuration, so ``python -m repro experiment serving-chaos`` is the
reproduction command — and returns an ordinary
:class:`~repro.bench.harness.Experiment`: one series per
:class:`~repro.serving.report.ServingReport` field, one point per run.
Everything runs on the modeled clock, so every number is identical on
every machine; :data:`repro.bench.claims.CLAIMS` states what each
experiment must show, and the committed ``eval/claims.json`` pins the
measured values exactly.

- :func:`serving_formats` — FP16 / INT4 / INT2 from one memory budget,
  whole-prompt and chunked prefill, plus the priced grouped-decode point.
- :func:`serving_prefix_cache` — prefix cache on vs off, half-shared trace.
- :func:`serving_offload` — swap vs recompute at one device page budget.
- :func:`serving_chaos` — the committed fault plan under a deadline, vs
  fault-free, with every ``crosscheck()`` verdict.
- :func:`serving_cluster` — three router policies over two replicas, plus
  the tensor-parallel pricing point.
"""

from __future__ import annotations

from typing import Sequence

from repro.attn.protocol import get_backend
from repro.bench.harness import Experiment
from repro.cluster import ROUTER_POLICIES, Router
from repro.core.config import BitDecodingConfig
from repro.faults import demo_fault_spec
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B, TINY
from repro.model.inference import decode_step_breakdown
from repro.model.memory import int_format
from repro.serving import (
    ContinuousBatchingEngine,
    DeadlinePolicy,
    compare_formats,
    paper_serving_stacks,
    poisson_trace,
)
from repro.serving.crosscheck import crosscheck, int4_stack

#: ``serving_formats``' chunked-prefill quantum (the Sarathi/vLLM default).
PREFILL_CHUNK = 512
#: The committed chaos plan: seed, tier geometry, batch cap and deadline
#: are tuned together so the plan exercises a retry, a heal and a shed
#: while recovery still succeeds for everything that stays.
CHAOS_SEED = 7
#: 15 prefix groups over 2 replicas: coprime, so round-robin really does
#: split every group (an even count would correlate ``i % groups`` with the
#: round-robin parity and hide the effect).
CLUSTER_GROUPS, CLUSTER_REPLICAS = 15, 2

_OUTCOME = ("completed", "rejected", "total_generated_tokens", "sustained_tokens_per_s")


def _add(exp: Experiment, x: str, report: object, fields: Sequence[str]) -> None:
    """One point per field: series ``field`` at ``x`` is ``report.field``."""
    for name in fields:
        exp.series_for(name).add(x, float(getattr(report, name)))


def serving_formats() -> Experiment:
    """One Poisson trace through one A100's memory in three cache formats.

    The low-bit formats must hold more pages, more resident sequences and
    sustain more tokens/s than FP16; chunked prefill must stop 8k-token
    prompts head-of-line blocking decodes (the worst inter-token stall
    collapses) at identical token totals.  The ``decode_step_ms`` series
    is the deterministic grouped-decode point: eight batch-1 launches vs
    one batch-8 launch at 16k context, priced by the paged-bit backend.
    """
    model, arch = LLAMA31_8B, get_arch("a100")
    trace = poisson_trace(
        80, rate_rps=32.0, prompt_len=8192, output_len=16, seed=0,
        prompt_jitter=0.1, output_jitter=0.25,
    )  # fmt: skip
    exp = Experiment(
        "serving-formats",
        f"FP16 vs INT4 vs INT2 serving, {model.name} on {arch.name}, {len(trace)} requests",
        unit="ServingReport fields | ms",
    )
    fields = (
        "n_pages", "peak_resident_batch", *_OUTCOME, "preemptions", "mixed_steps",
        "p99_ttft_s", "p99_tbt_s", "max_tbt_s",
    )  # fmt: skip
    stacks = paper_serving_stacks(model, arch)
    for chunk, suffix in ((None, ""), (PREFILL_CHUNK, f"/{PREFILL_CHUNK}")):
        for report in compare_formats(model, arch, stacks, trace, prefill_chunk_tokens=chunk):
            _add(exp, report.format_name + suffix, report, fields)
    exp.note(f"FP16/INT4/INT2: whole-prompt prefill; /{PREFILL_CHUNK}: chunked prefill")

    backend = get_backend("paged-bit", engine=BitDecodingConfig(bits=4), arch=arch)
    batch, seq_len = 8, 16384
    looped_ms = sum(backend.decode_step_ms(TINY, arch, 1, seq_len) for _ in range(batch))
    grouped_ms = backend.decode_step_ms(
        TINY, arch, batch, seq_len, decode_groups=[(batch, seq_len)]
    )
    exp.series_for("decode_step_ms").add("8 x batch 1", looped_ms)
    exp.series_for("decode_step_ms").add("1 x batch 8", grouped_ms)
    return exp


def serving_prefix_cache() -> Experiment:
    """INT4 stack, prefix cache on vs off: half of every prompt is one of
    two family-shared prefixes, so hits must remove prefill work and
    stretch the pool's effective capacity."""
    model, arch = LLAMA31_8B, get_arch("a100")
    trace = poisson_trace(
        48, rate_rps=32.0, prompt_len=8192, output_len=16, seed=0, output_jitter=0.25,
        shared_prefix_fraction=0.5, prefix_groups=2,
    )  # fmt: skip
    exp = Experiment(
        "serving-prefix-cache",
        f"Prefix cache on vs off, INT4 {model.name} on {arch.name}, {len(trace)} requests",
        unit="ServingReport fields",
    )
    fields = (
        "prefix_hit_rate", "prefix_hit_tokens", "prefix_probe_tokens", "prefix_evictions",
        "shared_pages_peak", "n_pages", "effective_capacity_pages", *_OUTCOME,
    )  # fmt: skip
    int4 = [stack for stack in paper_serving_stacks(model, arch) if stack[0].name == "INT4"]
    for x, cache in (("on", True), ("off", False)):
        _add(exp, x, compare_formats(model, arch, int4, trace, prefix_cache=cache)[0], fields)
    return exp


def serving_offload() -> Experiment:
    """Executed tiny model, eight device pages, both disciplines.

    Short prompts overcommit recompute admission (it reserves prompt pages
    only) and long outputs grow every context well past it: recompute
    preempt-thrashes with ever-costlier replays while swap pays a few
    pages of PCIe per victim.
    """
    arch = get_arch("a100")
    trace = poisson_trace(8, rate_rps=100000.0, prompt_len=64, output_len=120, seed=3)
    stack = int4_stack(TINY, arch)
    exp = Experiment(
        "serving-offload",
        f"Swap vs recompute preemption, executed {TINY.name}, 8 device pages",
        unit="ServingReport fields",
    )
    fields = (
        *_OUTCOME, "executed_tokens", "preemptions", "swap_outs", "swap_ins", "offload_faults",
        "offload_stall_s", "offload_overlapped_s", "offload_d2h_bytes", "offload_h2d_bytes",
    )  # fmt: skip
    for x, knobs in (
        ("swap", dict(preemption="swap", device_pages=8, host_pages=48)),
        ("recompute", dict(n_pages=8)),
    ):
        config = stack.config(True, max_batch=32, **knobs)
        _add(exp, x, ContinuousBatchingEngine(config, trace).run(), fields)
    return exp


def serving_chaos() -> Experiment:
    """The committed fault plan (transfer faults, lost pages, corruption,
    latency spikes, slow steps) with a 6 ms deadline over the swap-tiered
    INT4 stack, against the same trace fault-free and best-effort.

    Goes through :func:`~repro.serving.crosscheck.crosscheck`, so each of
    its verdicts is a 0/1 ``check <name>`` series.
    """
    result = crosscheck(
        int4_stack(TINY, get_arch("a100")),
        poisson_trace(8, rate_rps=100000.0, prompt_len=40, output_len=60, seed=3),
        faults=demo_fault_spec(CHAOS_SEED),
        deadline_policy=DeadlinePolicy(default_deadline_s=6e-3),
        audit_every=10,
        max_batch=3,
        preemption="swap",
        device_pages=8,
        host_pages=28,
    )
    exp = Experiment(
        "serving-chaos",
        f"Chaos plan {CHAOS_SEED} under a 6 ms deadline vs fault-free, executed {TINY.name}",
        unit="ServingReport fields | bool",
    )
    fields = (
        *_OUTCOME, "goodput_tokens_per_s", "deadline_met", "shed", "timed_out", "failed",
        "transfer_retries", "retry_backoff_s", "lost_pages", "checksum_failures",
        "healed_pages", "healed_requests", "slow_steps", "audits",
    )  # fmt: skip
    for x, run in (("chaos", "executed"), ("fault_free", "fault_free")):
        _add(exp, x, result.reports[run], fields)
    for name, ok in result.checks.items():
        exp.series_for(f"check {name}").add("chaos", float(ok))
    exp.series_for("checks").add("chaos", float(len(result.checks)))
    return exp


def serving_cluster() -> Experiment:
    """Two replicas, a 90 %-shared-prefix trace, every router policy; then
    one serving-shaped decode step priced at tp=1 and tp=2.

    ``prefix_affinity`` keeps each group on one replica's prefix cache and
    must beat ``round_robin``, which re-prefills every group's prefix once
    per replica; tensor parallelism must shard the attention kernel while
    charging a positive all-reduce tax.
    """
    model, arch = LLAMA31_8B, get_arch("a100")
    trace = poisson_trace(
        45, rate_rps=200.0, prompt_len=8192, output_len=128, seed=0,
        shared_prefix_fraction=0.9, prefix_groups=CLUSTER_GROUPS,
    )  # fmt: skip
    stack = int4_stack(model, arch)
    # Serving-scale pages (64 tokens) rather than the executed stack's N_r.
    config = stack.config(
        False, fmt=int_format(4, model, residual_window=64), page_size=64, prefix_cache=True
    )
    exp = Experiment(
        "serving-cluster",
        f"Router policies over {CLUSTER_REPLICAS} replicas and the tp=2 step, "
        f"INT4 {model.name} on {arch.name}, {len(trace)} requests",
        unit="ClusterReport fields | ms",
    )
    fields = (
        *_OUTCOME, "prefix_hit_rate", "cross_replica_prefix_misses", "prefix_groups_split",
        "load_imbalance",
    )  # fmt: skip
    for policy in ROUTER_POLICIES:
        cluster = Router(config, trace, replicas=CLUSTER_REPLICAS, policy=policy).run()
        _add(exp, policy, cluster, fields)
    batch, seq_len = 16, 8192
    for tp in (1, 2):
        step = decode_step_breakdown(model, arch, stack.kernel, batch, seq_len, n_gpus=tp, tp=tp)
        _add(exp, f"tp={tp}", step, ("attention_ms", "comm_ms", "total_ms"))
    return exp
