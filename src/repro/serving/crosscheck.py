"""Run-twice-and-compare: the equivalence oracles, as a library.

The serving claims live on a *modeled* clock, and they may be trusted
only because these oracles hold: an executed run follows the analytical
schedule step for step, and a swapped / healed / prefix-shared /
head-sharded decode is bit-identical to the undisturbed one.  Everything
that checks that — ``serve-sim --execute``/``--chaos``/``--tp``, the
chaos/offload/cluster benchmarks and the executed-mode test suites —
goes through this module: one INT4 stack (:func:`int4_stack`), one
schedule comparator (:func:`schedules_match`), one decode comparator
(:func:`decoded_bit_exact`) and three drivers that run the engines and
return named verdicts (:class:`CrossCheck`).  A new attention backend
proves itself by passing the same three drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.attn import PagedBitBackend
from repro.cluster import Router, ShardedPagedBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig
from repro.model.memory import CacheFormat, int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import Request

__all__ = [
    "SCHEDULE_FIELDS",
    "CrossCheck",
    "Int4Stack",
    "crosscheck_chaos",
    "crosscheck_cluster",
    "crosscheck_execute",
    "decoded_bit_exact",
    "int4_stack",
    "schedules_match",
]

#: Report counters two runs of one schedule must agree on exactly: token
#: and step counts, every preemption/swap, every fault outcome and
#: recovery action, and every terminal request state.
SCHEDULE_FIELDS = (
    "total_generated_tokens",
    "prefill_steps",
    "decode_steps",
    "mixed_steps",
    "preemptions",
    "swap_outs",
    "swap_ins",
    "transfer_retries",
    "lost_pages",
    "checksum_failures",
    "healed_pages",
    "healed_requests",
    "shed",
    "timed_out",
    "failed",
    "completed",
    "slow_steps",
)


class Int4Stack(NamedTuple):
    """The INT4 paged-bit serving stack every cross-check runs on.

    ``wn=1`` keeps ``N_r`` (the page size of an executed run: one
    scheduler page is one packed block) small enough for CI-sized
    prompts to span several pages.
    """

    model: ModelConfig
    arch: ArchSpec
    kernel: BitDecoding
    nr: int
    fmt: CacheFormat

    def config(self, execute: bool, seed: int = 0, **common) -> EngineConfig:
        """The analytical engine config, or its executed twin.

        Both are built from the same ``common`` knobs (pool geometry,
        batch cap, chunking, faults, ...), which is what makes their
        schedules comparable; ``common`` may override ``fmt`` and
        ``page_size`` for analytical-only runs at serving-scale pages.
        With ``tp > 1`` the executed twin decodes head-split through a
        :class:`~repro.cluster.sharding.ShardedPagedBackend`.
        """
        common = {
            "model": self.model,
            "arch": self.arch,
            "fmt": self.fmt,
            "page_size": self.nr,
            **common,
        }
        if not execute:
            return EngineConfig(attention=self.kernel, **common)
        tp = common.get("tp", 1)
        backend = (
            ShardedPagedBackend(self.kernel, tp=tp) if tp > 1 else PagedBitBackend(self.kernel)
        )
        return EngineConfig(backend=backend, execute=True, execute_seed=seed, **common)


def int4_stack(model: ModelConfig, arch: ArchSpec) -> Int4Stack:
    """Kernel, ``N_r`` and the matching cache format for ``model`` on ``arch``."""
    kernel_config = BitDecodingConfig(bits=4, wn=1)
    nr = kernel_config.residual_block_size
    return Int4Stack(
        model,
        arch,
        BitDecoding(kernel_config, arch),
        nr,
        int_format(4, model, residual_window=nr),
    )


@dataclass
class CrossCheck:
    """Verdicts of one cross-check, plus every report it produced.

    ``checks`` maps check name to pass/fail in the order the checks were
    made; ``reports`` maps run name to its :class:`ServingReport` (a
    :class:`~repro.cluster.report.ClusterReport` for a routed run).
    """

    checks: Dict[str, bool]
    reports: Dict[str, object]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def schedules_match(a, b) -> bool:
    """Do two serving reports describe the same schedule?

    Every :data:`SCHEDULE_FIELDS` counter must be equal and the simulated
    clocks must agree (to float round-off: an executed run sums the same
    step prices in the same order).  A report that executed tokens must
    also have run exactly the tokens it scheduled.
    """
    same_counts = all(getattr(a, f) == getattr(b, f) for f in SCHEDULE_FIELDS)
    ran_all = all(r.executed_tokens in (None, r.total_generated_tokens) for r in (a, b))
    ta, tb = a.sim_time_s, b.sim_time_s
    return same_counts and ran_all and abs(ta - tb) <= 1e-9 + 1e-6 * max(abs(ta), abs(tb))


def decoded_bit_exact(
    a: Mapping[int, Sequence[np.ndarray]],
    b: Mapping[int, Sequence[np.ndarray]],
    finished: Optional[Collection[int]] = None,
) -> bool:
    """Bit-compare two ``req_id -> [per-step hidden states]`` maps.

    With ``finished=None`` the maps must be identical: same requests,
    same step counts, equal arrays.  Otherwise ``a`` is a *disturbed* run
    (faults, deadlines) measured against the undisturbed reference ``b``:
    every request ``a`` decoded must be a bit-exact prefix of ``b``'s
    stream — and full-length if its id is in ``finished`` — so recovery
    costs time, never numerics, while timed-out requests may stop early.
    """
    if finished is None and a.keys() != b.keys():
        return False
    for req_id, steps in a.items():
        reference = b.get(req_id)
        if reference is None or len(steps) > len(reference):
            return False
        if (finished is None or req_id in finished) and len(steps) != len(reference):
            return False
        if any(not np.array_equal(x, y) for x, y in zip(steps, reference)):
            return False
    return True


def _run(config: EngineConfig, trace: Sequence[Request]):
    engine = ContinuousBatchingEngine(config, trace)
    return engine, engine.run()


def _route(config: EngineConfig, trace: Sequence[Request], replicas: int, policy: str):
    router = Router(config, trace, replicas=replicas, policy=policy)
    return router, router.run()


def crosscheck_execute(
    stack: Int4Stack, trace: Sequence[Request], *, seed: int = 0, **common
) -> CrossCheck:
    """Executed ≡ analytical, and each engine feature ≡ its plain twin.

    Always: the executed run follows the analytical schedule.  Under
    ``preemption="swap"`` two recompute references bracket the swap run:
    an *unpressured* pool of the same total page count proves swapped-
    and-restored decode bit-identical to never-swapped decode, and a pool
    of just the device tier shows what the same device budget costs when
    pressure is paid in recomputation instead of PCIe traffic.  Under
    ``prefix_cache=True`` a ``prefix_share=False`` run (hits copied into
    private pages) must decode bit-identical hidden states on the same
    schedule, and on a trace that shares prefixes a cache-off run must
    be strictly slower with strictly less effective capacity.
    """
    _, analytical = _run(stack.config(False, **common), trace)
    engine, executed = _run(stack.config(True, seed, **common), trace)
    checks = {"schedule_match": schedules_match(analytical, executed)}
    reports = {"analytical": analytical, "executed": executed}
    if common.get("preemption") == "swap":
        tiers = ("preemption", "device_pages", "host_pages", "disk_pages")
        untiered = {k: v for k, v in common.items() if k not in tiers}
        device = common["device_pages"]
        total = device + common["host_pages"] + common.get("disk_pages", 0)
        baseline_engine, baseline = _run(stack.config(True, seed, n_pages=total, **untiered), trace)
        _, pressured = _run(stack.config(True, seed, n_pages=device, **untiered), trace)
        checks["all_completed"] = executed.completed == len(trace)
        checks["swap_vs_unpressured_bit_exact"] = decoded_bit_exact(
            engine.decoded, baseline_engine.decoded
        )
        if executed.swap_outs:
            checks["swap_faster_than_recompute"] = (
                executed.sustained_tokens_per_s > pressured.sustained_tokens_per_s
            )
        reports["recompute_unpressured"] = baseline
        reports["recompute_pressured"] = pressured
    if common.get("prefix_cache"):
        copied_engine, copied = _run(
            stack.config(True, seed, **{**common, "prefix_share": False}), trace
        )
        _, off = _run(stack.config(True, seed, **{**common, "prefix_cache": False}), trace)
        checks["share_vs_copy_schedule_match"] = (
            schedules_match(copied, executed)
            and copied.prefix_hit_tokens == executed.prefix_hit_tokens
        )
        checks["share_vs_copy_bit_exact"] = decoded_bit_exact(
            engine.decoded, copied_engine.decoded
        )
        if any(r.shared_prefix_len for r in trace):
            checks["hit_rate_positive"] = executed.prefix_hit_rate > 0
            checks["faster_than_cache_off"] = (
                executed.sustained_tokens_per_s > off.sustained_tokens_per_s
            )
            checks["more_effective_capacity"] = (
                executed.effective_capacity_pages > off.effective_capacity_pages
            )
        reports["executed_copy"] = copied
        reports["cache_off"] = off
    return CrossCheck(checks, reports)


def crosscheck_chaos(
    stack: Int4Stack,
    trace: Sequence[Request],
    chaos: Mapping[str, object],
    *,
    replicas: int = 1,
    policy: str = "round_robin",
    execute: bool = True,
    seed: int = 0,
    **common,
) -> CrossCheck:
    """Fault injection over the swap-tiered stack, with recovery proofs.

    ``chaos`` holds the fault-side engine knobs (``faults``,
    ``deadline_policy``, ``audit_every``, ``max_heals``) the fault-free
    reference run leaves out.  Every run goes through a
    :class:`~repro.cluster.router.Router` over ``replicas`` engines (one
    replica is exactly a plain engine; ``common`` carries ``tp``/``n_gpus``)
    and is judged on its merged report and merged decode map — each
    replica draws its own copy of the fault plan.  The analytical chaos
    run always happens;
    with ``execute`` the recovery machinery is proven on top: analytical
    and executed chaos schedules agree on every fault outcome and
    recovery action, all lost/corrupt pages were healed with no request
    FAILED, executed decode outputs are bit-identical to a fault-free
    run wherever recovery succeeded, and the plan actually exercised a
    retry, a heal and (under a deadline policy) a shed.
    """
    _, analytical = _route(stack.config(False, **chaos, **common), trace, replicas, policy)
    checks: Dict[str, bool] = {}
    reports = {"analytical": analytical}
    if execute:
        router, executed = _route(
            stack.config(True, seed, **chaos, **common), trace, replicas, policy
        )
        free_router, fault_free = _route(
            stack.config(True, seed, **common), trace, replicas, policy
        )
        finished = {lc.request.req_id for lc in router.lifecycles if lc.finished}
        checks["schedule_match"] = schedules_match(analytical, executed)
        checks["all_damage_healed"] = executed.failed == 0 and not any(
            engine.tiers.has_bad_pages for engine in router.engines
        )
        checks["outputs_bit_exact_after_recovery"] = decoded_bit_exact(
            router.decoded, free_router.decoded, finished
        )
        checks["exercised_retry"] = executed.transfer_retries >= 1
        checks["exercised_heal"] = executed.healed_pages >= 1
        if chaos.get("deadline_policy") is not None:
            checks["exercised_shed"] = executed.shed >= 1
        reports["executed"] = executed
        reports["fault_free"] = fault_free
    return CrossCheck(checks, reports)


def crosscheck_cluster(
    stack: Int4Stack,
    trace: Sequence[Request],
    *,
    replicas: int,
    policy: str = "round_robin",
    execute: bool = True,
    seed: int = 0,
    **common,
) -> CrossCheck:
    """TP-sharded engines behind a router ≡ single-rank engines.

    Routes ``trace`` across ``replicas`` engines (``common`` carries
    ``tp``/``n_gpus``).  With ``execute``: every request must complete
    exactly once across replicas; each replica's decoded streams must be
    bit-identical to a single-rank (tp=1) rerun of its dispatched subset
    — the schedule may differ (tp pricing moves the clock) but decode
    numerics are schedule-independent; and, without the prefix cache
    (whose hit pattern legitimately depends on request co-location), the
    merged cluster output must equal one single-rank engine serving the
    whole trace.
    """
    router, cluster = _route(stack.config(execute, seed, **common), trace, replicas, policy)
    reports = {"cluster": cluster}
    checks: Dict[str, bool] = {}
    if execute:
        lifecycles = router.lifecycles
        finished = [lc.request.req_id for lc in lifecycles if lc.finished]
        checks["exactly_once_across_replicas"] = (
            sorted(lc.request.req_id for lc in lifecycles) == sorted(r.req_id for r in trace)
            and len(finished) == len(set(finished)) == len(trace)
        )
        single = stack.config(True, seed, **{**common, "n_gpus": 1, "tp": 1})
        bit_exact = True
        for engine in router.engines:
            reference, _ = _run(single, [lc.request for lc in engine.lifecycles])
            bit_exact = bit_exact and decoded_bit_exact(engine.decoded, reference.decoded)
        checks["tp_decode_bit_exact_vs_single_rank"] = bit_exact
        if not common.get("prefix_cache"):
            whole, _ = _run(single, trace)
            checks["cluster_bit_exact_vs_single_engine"] = decoded_bit_exact(
                router.decoded, whole.decoded
            )
    return CrossCheck(checks, reports)
