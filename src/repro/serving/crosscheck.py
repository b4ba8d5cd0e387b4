"""Run-twice-and-compare: the equivalence oracles, as a library.

The serving claims live on a *modeled* clock, and they may be trusted
only because these oracles hold: an executed run follows the analytical
schedule step for step, and a swapped / healed / prefix-shared /
head-sharded decode is bit-identical to the undisturbed one.  Everything
that checks that — ``serve-sim --execute``/``--chaos``/``--tp``, the
chaos/offload/cluster benchmarks and the executed-mode test suites —
goes through this module: one INT4 stack (:func:`int4_stack`), one
schedule comparator (:func:`schedules_match`), one decode comparator
(:func:`decoded_bit_exact`) and one driver (:func:`crosscheck`) that
runs the engines and returns named verdicts (:class:`CrossCheck`), held
to one table of what each engine feature owes (:data:`FEATURES`).  A
proof obligation belongs to the engine feature in use, not to a CLI
mode; a new attention backend proves itself by passing the same driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.attn import PagedBitBackend
from repro.cluster import Router, ShardedPagedBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig
from repro.model.memory import CacheFormat, int_format
from repro.serving.engine import EngineConfig
from repro.serving.request import Request

__all__ = [
    "EXPECTATIONS",
    "FEATURES",
    "SCHEDULE_FIELDS",
    "CrossCheck",
    "Feature",
    "Int4Stack",
    "crosscheck",
    "decoded_bit_exact",
    "int4_stack",
    "owed",
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


class Feature(NamedTuple):
    """One :data:`FEATURES` row: what an engine feature owes :func:`crosscheck`."""

    name: str
    #: Is the feature in use?  Reads ``crosscheck``'s keyword arguments.
    on: Callable[[Mapping], bool]
    #: Equivalences: theorems owed on every configuration the driver accepts.
    owes: Tuple[str, ...] = ()
    #: [S] equivalences: owed only while no feature in use ``reschedules``.
    owes_s: Tuple[str, ...] = ()
    #: Expectations: the chosen workload exercised the feature (a valid run may miss them).
    expects: Tuple[str, ...] = ()
    #: Numerics depend on the schedule, so a rescheduled reference is no theorem.
    reschedules: bool = False
    #: Features this one does not compose with, and the one ``ValueError`` saying why.
    excludes: Tuple[str, ...] = ()
    rejection: str = ""
    #: A ``python -m repro`` command on which every verdict the row adds prints True.
    smoke: str = ""


def _disturbed(config: Mapping) -> bool:
    return config.get("faults") is not None or config.get("deadline_policy") is not None


#: The obligation table — the one statement of which features compose,
#: what each owes and what is rejected.  [S]: a reference that runs a
#: *different schedule* is only a theorem when numerics are
#: schedule-independent.  A prefix-cache hit makes the suffix attend
#: dequantized instead of exact prefix KV (and pool pressure decides which
#: requests hit), and a prefill chunk's boundaries are the scheduler's
#: per-step ``take``; so under either the [S] verdicts are not owed, and a
#: disturbed run, whose only reference reschedules, is rejected.
FEATURES = (
    Feature(
        "execute",
        lambda c: c.get("execute", True),
        owes=("schedule_match",),
        smoke="serve-sim --model tiny --execute --requests 4 --rate 100 --prompt-len 40 "
        "--output-len 6 --pages 64 --max-batch 4 --steps 120",
    ),
    Feature(
        # Undisturbed only: a disturbed run's undisturbed reference *is* its swap run.
        "swap",
        lambda c: c.get("preemption") == "swap" and not _disturbed(c),
        owes_s=("swap_vs_unpressured_bit_exact",),
        expects=("all_completed", "swap_faster_than_recompute"),
        smoke="serve-sim --model tiny --execute --preemption swap --device-pages 8 "
        "--host-pages 28 --requests 8 --rate 100000 --prompt-len 40 --output-len 60 --seed 3",
    ),
    Feature(
        "prefix_cache",
        lambda c: bool(c.get("prefix_cache")),
        owes=("share_vs_copy_schedule_match", "share_vs_copy_bit_exact"),
        expects=("hit_rate_positive", "faster_than_cache_off", "more_effective_capacity"),
        reschedules=True,
        smoke="serve-sim --model tiny --execute --requests 8 --rate 5000 --prompt-len 256 "
        "--output-len 24 --pages 96 --max-batch 8 --seed 7 --shared-prefix 0.5 --prefix-cache",
    ),
    Feature(
        "prefill_chunk_tokens",
        lambda c: c.get("prefill_chunk_tokens") is not None,
        reschedules=True,
        smoke="serve-sim --model tiny --execute --requests 6 --rate 100 --prompt-len 70 "
        "--output-len 12 --pages 12 --prefill-chunk 32 --max-batch 8 --steps 400",
    ),
    Feature(
        "disturbed",  # faults / deadline_policy
        _disturbed,
        owes=("all_damage_healed", "outputs_bit_exact_after_recovery"),
        expects=("exercised_retry", "exercised_heal", "exercised_shed"),
        excludes=("prefix_cache", "prefill_chunk_tokens"),
        rejection="faults / deadline_policy do not compose with prefix_cache or "
        "prefill_chunk_tokens: hit patterns and chunk boundaries depend on the "
        "schedule, so no undisturbed run is a bit-exact reference",
        smoke="serve-sim --model tiny --execute --chaos 7 --device-pages 8 --host-pages 28 "
        "--max-batch 3 --requests 8 --rate 100000 --prompt-len 40 --output-len 60 --seed 3 "
        "--deadline-ms 6",
    ),
    Feature(
        "cluster",
        lambda c: c.get("tp", 1) > 1 or c.get("replicas", 1) > 1,
        owes=("exactly_once_across_replicas",),
        owes_s=("tp_decode_bit_exact_vs_single_rank", "cluster_bit_exact_vs_single_engine"),
        smoke="serve-sim --model tiny --execute --tp 2 --replicas 2 --preemption swap "
        "--device-pages 8 --host-pages 28 --requests 8 --rate 100000 --prompt-len 40 "
        "--output-len 60 --seed 3",
    ),
)

#: Every row's expectations; every other verdict is an equivalence.
EXPECTATIONS = frozenset(name for row in FEATURES for name in row.expects)


def _in_use(config: Mapping) -> Dict[str, Feature]:
    """The :data:`FEATURES` rows ``config`` turns on, by name.

    Raises the row's ``ValueError`` on a composition it excludes.  Every
    verdict judges the executed run, so without ``execute`` none is on.
    """
    rows = {row.name: row for row in FEATURES if row.on(config)}
    for row in rows.values():
        if rows.keys() & set(row.excludes):
            raise ValueError(row.rejection)
    return rows if "execute" in rows else {}


def owed(config: Mapping) -> FrozenSet[str]:
    """The equivalences ``crosscheck(stack, trace, **config)`` owes, per :data:`FEATURES`."""
    rows = _in_use(config).values()
    fixed = not any(row.reschedules for row in rows)
    return frozenset(name for row in rows for name in row.owes + (row.owes_s if fixed else ()))


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
    made; ``reports`` maps run name to its merged
    :class:`~repro.cluster.report.ClusterReport`.
    """

    checks: Dict[str, bool]
    reports: Dict[str, object]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def equivalences(self) -> Dict[str, bool]:
        """The verdicts that are theorems, not :data:`EXPECTATIONS`."""
        return {name: ok for name, ok in self.checks.items() if name not in EXPECTATIONS}


def schedules_match(a, b, clock: bool = True) -> bool:
    """Do two serving reports describe the same schedule?

    Every :data:`SCHEDULE_FIELDS` counter must be equal and — unless
    ``clock=False`` — the simulated clocks must agree (to float
    round-off: an executed run sums the same step prices in the same
    order).  A report that executed tokens must also have run exactly the
    tokens it scheduled.
    """
    same_counts = all(getattr(a, f) == getattr(b, f) for f in SCHEDULE_FIELDS)
    ran_all = all(r.executed_tokens in (None, r.total_generated_tokens) for r in (a, b))
    ta, tb = a.sim_time_s, b.sim_time_s
    same_clock = not clock or abs(ta - tb) <= 1e-9 + 1e-6 * max(abs(ta), abs(tb))
    return same_counts and ran_all and same_clock


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


_TIER_KNOBS = ("preemption", "device_pages", "host_pages", "disk_pages")
_DISTURBANCE_KNOBS = ("faults", "deadline_policy", "audit_every", "max_heals")


def crosscheck(
    stack: Int4Stack,
    trace: Sequence[Request],
    *,
    replicas: int = 1,
    policy: str = "round_robin",
    execute: bool = True,
    seed: int = 0,
    **config,
) -> CrossCheck:
    """Run ``config`` plus every reference run its features owe; name the verdicts.

    The analytical run always happens; ``execute`` adds the executed twin
    (the *subject*) and, per :data:`FEATURES` row in use, that row's
    reference runs and verdicts.  Both equivalences and expectations fold
    into ``.ok``; the equivalences made must be exactly :func:`owed`.

    Every run goes through a :class:`~repro.cluster.router.Router` (one
    replica is exactly a plain engine; ``config`` carries ``tp`` /
    ``n_gpus``) and is judged on its merged report and decode map.
    """
    args = {**config, "replicas": replicas, "execute": execute}
    on = _in_use(args)
    disturbed = "disturbed" in on
    schedule_free = not any(row.reschedules for row in on.values())
    untiered = {k: v for k, v in config.items() if k not in _TIER_KNOBS}
    undisturbed = {k: v for k, v in config.items() if k not in _DISTURBANCE_KNOBS}

    def run(knobs=config, requests=trace, n=replicas, executed=True):
        router = Router(stack.config(executed, seed, **knobs), requests, n, policy)
        return router, router.run()

    _, analytical = run(executed=False)
    checks: Dict[str, bool] = {}
    reports = {"analytical": analytical}
    if not execute:
        return CrossCheck(checks, reports)
    subject, executed = run()
    reports["executed"] = executed
    checks["schedule_match"] = schedules_match(analytical, executed)
    finished = (
        {lc.request.req_id for lc in subject.lifecycles if lc.finished} if disturbed else None
    )

    def same_decode(reference: Router, part=subject) -> bool:
        return decoded_bit_exact(part.decoded, reference.decoded, finished)

    if "swap" in on:
        # Recompute on the *total* page count (never pressured) and on the
        # *device* tier alone (pressure paid in recomputation, not PCIe).
        device = config["device_pages"]
        total = device + config["host_pages"] + config.get("disk_pages", 0)
        unpressured, reports["recompute_unpressured"] = run({**untiered, "n_pages": total})
        _, pressured = run({**untiered, "n_pages": device})
        reports["recompute_pressured"] = pressured
        checks["all_completed"] = executed.completed == len(trace)
        if schedule_free:
            checks["swap_vs_unpressured_bit_exact"] = same_decode(unpressured)
        if executed.swap_outs:
            checks["swap_faster_than_recompute"] = (
                executed.sustained_tokens_per_s > pressured.sustained_tokens_per_s
            )
    if "prefix_cache" in on:
        # Hits copied into private pages, and the cache off.  Copy mode owns
        # more physical pages, so under tiers swap moves more bytes: no clock.
        copied_run, copied = run({**config, "prefix_share": False})
        _, off = run({**config, "prefix_cache": False})
        reports["executed_copy"], reports["cache_off"] = copied, off
        checks["share_vs_copy_schedule_match"] = (
            schedules_match(copied, executed, clock=config.get("preemption") != "swap")
            and copied.prefix_hit_tokens == executed.prefix_hit_tokens
        )
        checks["share_vs_copy_bit_exact"] = same_decode(copied_run)
        if any(r.shared_prefix_len for r in trace):
            checks["hit_rate_positive"] = executed.prefix_hit_rate > 0
            checks["faster_than_cache_off"] = (
                executed.sustained_tokens_per_s > off.sustained_tokens_per_s
            )
            checks["more_effective_capacity"] = (
                executed.effective_capacity_pages > off.effective_capacity_pages
            )
    if disturbed:
        # The same run undisturbed; decode streams compare as bit-exact
        # prefixes, full-length where the request finished: recovery and
        # deadlines cost time, never numerics.
        calm, reports["fault_free"] = run(undisturbed)
        checks["all_damage_healed"] = executed.failed == 0 and not any(
            engine.swap is not None and engine.swap.has_bad_pages for engine in subject.engines
        )
        checks["outputs_bit_exact_after_recovery"] = same_decode(calm)
        if config.get("faults") is not None:
            checks["exercised_retry"] = executed.transfer_retries >= 1
            checks["exercised_heal"] = executed.healed_pages >= 1
        if config.get("deadline_policy") is not None:
            checks["exercised_shed"] = executed.shed >= 1
    if "cluster" in on:
        # Single-rank engines over each replica's dispatched subset and over
        # the whole trace.
        lifecycles = subject.lifecycles
        once = sorted(lc.request.req_id for lc in lifecycles) == sorted(r.req_id for r in trace)
        checks["exactly_once_across_replicas"] = once and (
            disturbed or all(lc.finished for lc in lifecycles)
        )
        if schedule_free:
            single = {**undisturbed, "tp": 1, "n_gpus": 1}
            reruns = [
                run(single, [lc.request for lc in engine.lifecycles], 1)[0]
                for engine in subject.engines
            ]
            checks["tp_decode_bit_exact_vs_single_rank"] = all(
                map(same_decode, reruns, subject.engines)
            )
            # One replica's dispatched subset is the whole trace: same run.
            whole = reruns[0] if replicas == 1 else run(single, n=1)[0]
            checks["cluster_bit_exact_vs_single_engine"] = same_decode(whole)
    result = CrossCheck(checks, reports)
    if set(result.equivalences) != owed(args):
        raise AssertionError(
            f"crosscheck made equivalences {sorted(result.equivalences)} but FEATURES "
            f"owes {sorted(owed(args))}"
        )
    return result
