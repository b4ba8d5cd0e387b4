"""Cluster serving: prefix-affinity routing and the tensor-parallel tax.

Two claims the cluster layer must keep honest:

1. **Routing matters.** On a shared-prefix trace whose groups genuinely
   split under round-robin (the group count is coprime to the replica
   count — an even count would make ``i % groups`` correlate with the
   round-robin parity and hide the effect), ``prefix_affinity`` keeps
   every group on one replica's prefix cache and must deliver strictly
   more aggregate throughput than ``round_robin``, which re-prefills
   every group's prefix once per replica.
2. **TP is not free.** Tensor-parallel pricing at ``tp=2`` must shard
   the decode attention kernel (per-rank attention strictly below the
   full-head kernel) while charging a strictly positive per-step
   all-reduce tax through the interconnect fields on ``ArchSpec``.

Fast mode (CI smoke): ``SERVING_BENCH_FAST=1 pytest benchmarks/bench_cluster.py``.

``benchmarks/emit_serving.py`` writes the point as the ``cluster`` section
of ``BENCH_serving.json``; ``scripts/check_bench_regression.py`` gates it
(affinity speedup above the floor, zero cross-replica misses, all-reduce
tax present, per-rank attention below the full-head kernel).
"""

import json
import os

from repro.cluster import Router
from repro.gpu.arch import get_arch
from repro.model.config import get_model
from repro.model.inference import decode_step_breakdown, decode_step_ms
from repro.model.memory import int_format
from repro.serving import poisson_trace
from repro.serving.crosscheck import int4_stack

FAST = os.environ.get("SERVING_BENCH_FAST", "") not in ("", "0")

MODEL = "llama-3.1-8b"
ARCH = "a100"
REPLICAS = 2
#: 15 groups over 2 replicas: coprime, so round-robin really does split
#: every group, while the affinity hash spreads 15 groups near-evenly.
PREFIX_GROUPS = 15
TRACE = dict(
    rate_rps=200.0,
    prompt_len=8192,
    output_len=128,
    seed=0,
    shared_prefix_fraction=0.9,
    prefix_groups=PREFIX_GROUPS,
)
#: Requests: 3 members per group in fast mode, 6 in full.
N_REQUESTS_FAST = 45
N_REQUESTS_FULL = 90

#: The TP pricing point: a serving-shaped decode step on the same stack.
TP_BATCH, TP_SEQ_LEN, TP_DEGREE = 16, 8192, 2


def bench_trace(fast):
    n = N_REQUESTS_FAST if fast else N_REQUESTS_FULL
    return poisson_trace(n, **TRACE)


def run_config(fast):
    """Everything needed to reproduce the run (the ``write_run`` manifest)."""
    return {
        "bench": "cluster",
        "fast": fast,
        "model": MODEL,
        "arch": ARCH,
        "replicas": REPLICAS,
        "trace": {**TRACE, "n_requests": N_REQUESTS_FAST if fast else N_REQUESTS_FULL},
        "tp_point": {"batch": TP_BATCH, "seq_len": TP_SEQ_LEN, "tp": TP_DEGREE},
    }


def run_cluster_bench(fast=False):
    """Route the shared-prefix trace under each policy; price the TP point."""
    model, arch = get_model(MODEL), get_arch(ARCH)
    stack = int4_stack(model, arch)
    kernel = stack.kernel
    trace = bench_trace(fast)
    # Serving-scale pages (64 tokens) rather than the executed stack's N_r.
    config = stack.config(
        False, fmt=int_format(4, model, residual_window=64), page_size=64, prefix_cache=True
    )
    clusters = {
        policy: Router(config, trace, replicas=REPLICAS, policy=policy).run()
        for policy in ("round_robin", "least_loaded", "prefix_affinity")
    }
    rr, pa = clusters["round_robin"], clusters["prefix_affinity"]
    sharded = decode_step_breakdown(
        model, arch, kernel, TP_BATCH, TP_SEQ_LEN, n_gpus=TP_DEGREE, tp=TP_DEGREE
    )
    full = decode_step_breakdown(model, arch, kernel, TP_BATCH, TP_SEQ_LEN)
    return {
        "model": model.name,
        "arch": arch.name,
        "fast_mode": fast,
        "replicas": REPLICAS,
        "n_requests": len(trace),
        **{k: v for k, v in TRACE.items()},
        "tokens_per_s": {
            policy: c.sustained_tokens_per_s for policy, c in clusters.items()
        },
        "affinity_speedup": (
            pa.sustained_tokens_per_s / rr.sustained_tokens_per_s
            if rr.sustained_tokens_per_s
            else 0.0
        ),
        "hit_rate_round_robin": rr.prefix_hit_rate,
        "hit_rate_prefix_affinity": pa.prefix_hit_rate,
        "cross_replica_misses_round_robin": rr.cross_replica_prefix_misses,
        "cross_replica_misses_prefix_affinity": pa.cross_replica_prefix_misses,
        "groups_split_round_robin": rr.prefix_groups_split,
        "groups_split_prefix_affinity": pa.prefix_groups_split,
        "load_imbalance_prefix_affinity": pa.load_imbalance,
        "completed": {policy: c.completed for policy, c in clusters.items()},
        "tp": {
            "batch": TP_BATCH,
            "seq_len": TP_SEQ_LEN,
            "tp": TP_DEGREE,
            "allreduce_tax_ms": sharded.comm_ms,
            "rank_attention_ms": sharded.attention_ms,
            "full_attention_ms": full.attention_ms,
            "step_ms_tp1": decode_step_ms(model, arch, kernel, TP_BATCH, TP_SEQ_LEN),
            "step_ms_tp2": decode_step_ms(
                model, arch, kernel, TP_BATCH, TP_SEQ_LEN, n_gpus=TP_DEGREE, tp=TP_DEGREE
            ),
        },
        "report_round_robin": rr.to_dict(),
        "report_prefix_affinity": pa.to_dict(),
    }


def test_cluster_serving_point(run):
    point = run(run_cluster_bench, FAST)
    print(json.dumps({k: v for k, v in point.items() if not k.startswith("report_")}, indent=2))
    # Routing: affinity keeps every group home and strictly beats
    # round-robin, which splits every group across both replicas.
    assert point["cross_replica_misses_prefix_affinity"] == 0
    assert point["groups_split_prefix_affinity"] == 0
    assert point["cross_replica_misses_round_robin"] >= PREFIX_GROUPS
    assert point["groups_split_round_robin"] == PREFIX_GROUPS
    assert point["hit_rate_prefix_affinity"] > point["hit_rate_round_robin"]
    assert point["affinity_speedup"] > 1.0
    # Every policy still serves every request exactly once.
    assert all(done == point["n_requests"] for done in point["completed"].values())
    # TP pricing: the attention kernel shrinks, the interconnect charges.
    tp = point["tp"]
    assert tp["allreduce_tax_ms"] > 0.0
    assert tp["rank_attention_ms"] < tp["full_attention_ms"]
    assert tp["step_ms_tp2"] < tp["step_ms_tp1"]
