"""Discrete-event continuous-batching engine over the paged low-bit KV cache.

This is the paper's serving claim (Figs. 12b/13, Table I) made dynamic:
instead of asking "what is the largest static batch that fits", the engine
schedules a *trace* of requests through a physical page pool and measures
what the format actually sustains under load.

Mechanics (the vLLM/QServe-style loop, one simulation step at a time):

- **Admission** is FCFS: the head of the wait queue is admitted as soon as
  the page pool can hold its context, charged a prefill step
  (:func:`repro.model.inference.prefill_time_ms`).  Admission does not
  skip over a blocked head — that keeps the discipline starvation-free.
- **Chunked prefill** (``EngineConfig.prefill_chunk_tokens``, the
  Sarathi/vLLM discipline) replaces whole-prompt admission: each step
  spends at most one token-budget quantum on in-flight prefills, reserving
  pages chunk by chunk, and batches those chunks *with* the resident
  decode tokens into one mixed step priced by
  :func:`repro.model.inference.mixed_step_ms`.  Long prompts stop
  head-of-line blocking decodes (p99 time-between-tokens collapses) at the
  cost of their own time-to-first-token.
- **Decode** advances every resident sequence by one token.  Token growth
  allocates pages through the shared
  :class:`~repro.pages.page_table.PageTable`; when the
  :class:`~repro.pages.allocator.PageAllocator` runs dry the engine
  preempts the most recently admitted sequence — decoding or mid-prefill —
  releases exactly the pages it had reserved so far, and requeues it at
  the front of the wait queue (recompute-style: its generated-token count
  is kept, its KV is rebuilt on re-admission).  ``preemption="swap"``
  moves it off the device tier instead; :mod:`repro.serving.swap` owns
  that path and describes the fault healing, deadlines and audits.
- **Prefix caching** (``EngineConfig.prefix_cache``, the vLLM/SGLang
  discipline): admission probes a :class:`~repro.pages.prefix_cache.PrefixCache`
  of flushed page-aligned blocks chunk by chunk; hit pages are mapped into
  the new sequence's block table (refcount sharing through
  :meth:`PageAllocator.acquire <repro.pages.allocator.PageAllocator.acquire>`)
  and their prefill compute is skipped — priced *and* executed.  Pages
  whose last reference drops park in an LRU pool the allocator evicts
  from under pressure, so caching trades capacity for hit rate without
  leaking the pool.
- **Step timing** goes through the
  :class:`~repro.attn.protocol.AttentionBackend` protocol: a bare
  attention system is wrapped into an
  :class:`~repro.attn.analytical.AnalyticalBackend` (the end-to-end
  latency model, one of the two backend implementations), so FP16 vs
  INT4 vs INT2 runs differ exactly where the paper says they do:
  page-pool capacity and attention kernel time.
- **Real execution** (``EngineConfig.execute``): with a
  :class:`~repro.attn.paged.PagedBitBackend`, every scheduler step also
  runs its tokens through a :class:`~repro.attn.runner.ModelRunner` —
  TinyTransformer layers over per-layer paged pools indexed by *this
  engine's page table*.  Admission reserves the pages the prefill
  numerics fill, chunked prefill writes packed blocks page by page, and
  preemption frees pages that really hold the victim's quantized KV.
  Untiered, a step's prefill chunks ride its decode rows' forward (one
  forward per step).  The clock is still the analytical one (same
  backend pricing), so the executed schedule is byte-for-byte the
  analytical schedule, with ``ServingReport.executed_tokens`` proving
  every generated token was actually computed.

The page pool is sized from the *same* byte accounting the static model
uses (:func:`repro.model.memory.page_pool_size`), which is what makes
"equal memory, different bit width" a fair comparison.  After every step
the engine checks page conservation — the pages held by resident
sequences must equal the allocator's used count — so scheduling bugs
(double releases, leaked mid-prefill reservations) fail loudly instead of
skewing the comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.attn.analytical import AnalyticalBackend
from repro.attn.protocol import AttentionBackend
from repro.faults.audit import InvariantAuditor
from repro.faults.plan import FaultSpec
from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig
from repro.model.inference import AttentionSystem
from repro.model.memory import CacheFormat, page_pool_size
from repro.model.serving import ServingOOMError
from repro.pages.allocator import OutOfPagesError, PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.prefix_cache import PrefixCache
from repro.serving.report import ServingReport
from repro.serving.request import (
    DeadlinePolicy,
    Request,
    RequestLifecycle,
    RunningSet,
    prefix_block_keys,
)
from repro.serving.swap import SwapPreemption

__all__ = [
    "ContinuousBatchingEngine",
    "DeadlinePolicy",
    "EngineConfig",
    "RequestLifecycle",
]


@dataclass
class EngineConfig:
    """Knobs of one simulation run.

    Exactly one of ``attention`` / ``backend`` selects the attention
    implementation: a bare :class:`AttentionSystem` is wrapped into an
    :class:`~repro.attn.analytical.AnalyticalBackend` (pure step
    pricing), while an :class:`~repro.attn.protocol.AttentionBackend`
    prices steps through the protocol and — with ``execute=True`` and a
    token-executing backend — also runs real tokens through a
    :class:`~repro.attn.runner.ModelRunner` sharing the engine's page
    table (``page_size`` must then equal the backend's residual block
    size ``N_r``, so one scheduler page is one packed block).
    """

    model: ModelConfig
    arch: ArchSpec
    fmt: CacheFormat
    attention: Optional[AttentionSystem] = None
    backend: Optional[AttentionBackend] = None
    #: Run real tokens through the numeric backend each scheduler step.
    execute: bool = False
    #: Seed of the runner's synthesized per-request input programs.
    execute_seed: int = 0
    page_size: int = 64
    #: Physical pages in the pool; None derives it from the device memory
    #: left after weights and residual buffers (the shared code path with
    #: the static serving model).
    n_pages: Optional[int] = None
    max_batch: int = 384
    n_gpus: int = 1
    #: Tensor-parallel degree: the KV-head space is sharded across ``tp``
    #: ranks (whole GQA groups, so ``tp`` must divide the model's KV-head
    #: count) and each decode step pays one rank's attention plus the
    #: all-reduce tax.  ``tp > 1`` spans the engine's GPUs, so it must
    #: equal ``n_gpus``; with ``execute=True`` the backend's own degree
    #: must equal it (a :class:`~repro.cluster.sharding.ShardedPagedBackend`
    #: of degree ``tp``, or a plain paged backend for ``tp == 1``).
    tp: int = 1
    #: Cap on scheduler iterations (one admission phase + one decode step
    #: each); None runs the trace to completion.
    max_steps: Optional[int] = None
    #: Token budget one scheduler step spends on prefill (vLLM/Sarathi
    #: chunked prefill).  None keeps whole-prompt admission: a prompt is
    #: prefilled in one step, head-of-line blocking resident decodes.
    prefill_chunk_tokens: Optional[int] = None
    #: Probe a radix-style prefix cache at admission: page-aligned blocks
    #: whose content keys were registered by an earlier prefill are mapped
    #: into the new sequence (refcount sharing) and their prefill compute
    #: is skipped.
    prefix_cache: bool = False
    #: Diagnostic knob: with ``False``, prefix-cache hits allocate private
    #: pages and *copy* the packed words instead of sharing the mapping.
    #: The schedule and every decode output must be bit-identical to the
    #: shared run — which is how the sharing machinery is validated.
    prefix_share: bool = True
    #: What happens when pages run out: ``"recompute"`` releases the
    #: victim's pages and replays its prefill on re-admission (the 0.2
    #: behaviour); ``"swap"`` moves the victim's pages off the device tier
    #: and back on resume — no recompute, bit-identical KV
    #: (:mod:`repro.serving.swap`).
    preemption: str = "recompute"
    #: Tier geometry of a ``preemption="swap"`` run: the device tier holds
    #: ``device_pages`` frames, backed by ``host_pages`` (+ modeled
    #: ``disk_pages``).  The allocator pool spans the *total*, so admission
    #: can accept aggregate context beyond device capacity; only the
    #: decode working set must fit the device tier at once.
    device_pages: Optional[int] = None
    host_pages: Optional[int] = None
    disk_pages: int = 0
    #: Fault-injection spec; the swap owner builds a deterministic fault
    #: plan from it and arms the tier store.  Requires
    #: ``preemption="swap"`` — faults live on the tier transfer legs.
    faults: Optional[FaultSpec] = None
    #: Deadline semantics (shedding, timeouts, goodput); None ignores
    #: ``Request.deadline_s`` entirely.
    deadline_policy: Optional[DeadlinePolicy] = None
    #: Run the invariant auditor every N steps (and once after the run);
    #: None disables auditing.
    audit_every: Optional[int] = None
    #: Heal budget per request: a sequence replayed more than this many
    #: times by fault recovery is dropped as FAILED.
    max_heals: int = 5

    @property
    def tiered(self) -> bool:
        return self.preemption == "swap"

    def __post_init__(self) -> None:
        if self.preemption not in ("recompute", "swap"):
            raise ValueError('preemption must be "recompute" or "swap"')
        if self.preemption == "swap":
            if self.device_pages is None or self.device_pages <= 0:
                raise ValueError('preemption="swap" needs a positive device_pages')
            if self.host_pages is None or self.host_pages <= 0:
                raise ValueError('preemption="swap" needs a positive host_pages')
            if self.disk_pages < 0:
                raise ValueError("disk_pages must be non-negative")
            if self.n_pages is not None:
                raise ValueError(
                    "n_pages is derived (device + host + disk) under "
                    'preemption="swap"; set the tier sizes instead'
                )
        elif self.device_pages is not None or self.host_pages is not None or self.disk_pages:
            raise ValueError('tier geometry (device/host/disk pages) requires preemption="swap"')
        if not self.prefix_share and not self.prefix_cache:
            raise ValueError("prefix_share=False only modifies a prefix_cache=True run")
        if self.faults is not None and not self.tiered:
            raise ValueError(
                'faults are injected on tier transfer legs: FaultSpec needs '
                'preemption="swap" and a tier geometry'
            )
        for name in ("max_steps", "prefill_chunk_tokens", "audit_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive (or None), got {value}")
        if self.max_heals < 1:
            raise ValueError("max_heals must be at least 1")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.n_gpus <= 0:
            raise ValueError(
                f"n_gpus must be positive, got {self.n_gpus}; the engine "
                "needs at least one GPU to schedule on"
            )
        if self.tp < 1:
            raise ValueError(f"tp must be >= 1, got {self.tp}")
        if self.model.hkv % self.tp != 0:
            divisors = [d for d in range(1, self.model.hkv + 1) if self.model.hkv % d == 0]
            raise ValueError(
                f"tp={self.tp} does not divide {self.model.name}'s KV-head "
                f"count ({self.model.hkv}); tensor parallelism shards whole "
                f"GQA head groups, so pick tp in {divisors}"
            )
        if self.tp > 1 and self.n_gpus != self.tp:
            raise ValueError(
                f"tp={self.tp} spans the engine's GPUs, so n_gpus must equal "
                f"tp (got n_gpus={self.n_gpus}); data parallelism is layered "
                "on top via cluster replicas, not n_gpus"
            )
        if self.attention is None and self.backend is None:
            raise ValueError("provide an attention system or an AttentionBackend")
        if self.attention is not None and self.backend is not None:
            raise ValueError(
                "provide either an attention system or an AttentionBackend, "
                "not both: the backend would silently win the step pricing"
            )
        if self.execute:
            from repro.attn.paged import PagedBitBackend

            if not isinstance(self.backend, PagedBitBackend):
                raise ValueError(
                    "execute=True needs a token-executing paged-bit backend "
                    "(PagedBitBackend): it shares the scheduler's page table "
                    "with the numerics; the analytical backend only prices steps"
                )
            if self.n_pages is None and not self.tiered:
                raise ValueError(
                    "execute=True needs an explicit n_pages: the runner "
                    "allocates real per-layer pools for every page, so a "
                    "device-memory-derived pool would be enormous"
                )
            # Duck-typed (the cluster package imports this module, so
            # importing ShardedPagedBackend here would cycle): the engine
            # prices every step at ``self.tp``, so the backend must execute
            # the same head split — a plain paged backend counts as tp=1.
            backend_tp = getattr(self.backend, "tp", 1)
            if backend_tp != self.tp:
                raise ValueError(
                    f"tp={self.tp} with execute=True needs a backend of the "
                    "same degree (ShardedPagedBackend(..., tp=N) for N > 1, "
                    f"PagedBitBackend for 1); got {type(self.backend).__name__} "
                    f"with tp={backend_tp}"
                )

    def resolve_backend(self) -> AttentionBackend:
        """The backend the engine schedules with (wrapping ``attention``)."""
        if self.backend is not None:
            return self.backend
        return AnalyticalBackend(self.attention)


class ContinuousBatchingEngine:
    """Run one request trace through one (cache format, attention) stack."""

    def __init__(self, config: EngineConfig, requests: Sequence[Request]):
        self.config = config
        n_pages = config.n_pages
        if config.tiered:
            n_pages = config.device_pages + config.host_pages + config.disk_pages
        elif n_pages is None:
            n_pages = page_pool_size(
                config.model,
                config.arch,
                config.fmt,
                page_size=config.page_size,
                n_gpus=config.n_gpus,
                reserved_seqs=config.max_batch,
            )
        if n_pages <= 0:
            raise ServingOOMError(
                f"{config.model.name} leaves no page budget for {config.fmt.name} "
                f"on {config.arch.name} x{config.n_gpus}"
            )
        self.n_pages = n_pages
        self.allocator = PageAllocator(n_pages)
        self.table = PageTable(self.allocator, page_size=config.page_size)
        #: Pages the decode working set must fit at once (whole pool when
        #: untiered).
        self.device_pages = config.device_pages if config.tiered else n_pages
        #: The run's one accounting record: events count straight into it,
        #: :meth:`finish` reads out the rest and derives the rates.
        self.report = ServingReport(
            format_name=config.fmt.name,
            n_pages=n_pages,
            page_size=config.page_size,
            prefill_chunk_tokens=config.prefill_chunk_tokens,
            prefix_cache_enabled=config.prefix_cache,
            preemption=config.preemption,
            device_pages=self.device_pages,
            host_pages=config.host_pages or 0,
            disk_pages=config.disk_pages,
            faults_enabled=config.faults is not None,
        )
        #: The running set (``seqs``), the swapped set (``parked``) and their
        #: books; membership changes only through its methods.
        self.running = RunningSet(self.table)
        self.swap: Optional[SwapPreemption] = (
            SwapPreemption(config, self.table, self.running, self.report)
            if config.tiered
            else None
        )
        tiers = self.swap.tiers if self.swap is not None else None
        self.auditor: Optional[InvariantAuditor] = (
            InvariantAuditor(self.allocator, table=self.table, tiers=tiers, running=self.running)
            if config.audit_every is not None
            else None
        )
        self.prefix_cache: Optional[PrefixCache] = (
            PrefixCache(self.allocator) if config.prefix_cache else None
        )
        self.backend = config.resolve_backend()
        self._runner = None
        if config.execute:
            from repro.attn.runner import ModelRunner

            # The runner's per-layer pools are indexed by this table's page
            # ids: admission, chunked prefill and preemption manipulate the
            # same pages the numerics read.
            self._runner = ModelRunner(
                config.model,
                self.backend,
                self.table,
                n_slots=config.max_batch,
                seed=config.execute_seed,
                tiers=tiers,
            )
            if self.swap is not None:
                self.swap.runner = self._runner
        self.lifecycles: List[RequestLifecycle] = [
            self._make_lifecycle(r)
            for r in sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        ]
        #: Not-yet-arrived requests, sorted by arrival time; drained into
        #: the wait queue as the clock passes them.
        self._pending: Deque[RequestLifecycle] = deque(self.lifecycles)
        self._queue: Deque[RequestLifecycle] = deque()
        self._clock = 0.0
        self._steps = 0

    # ------------------------------------------------------------- scheduling

    def _make_lifecycle(self, request: Request) -> RequestLifecycle:
        """Wrap a request, stamping its absolute deadline from the policy."""
        lc = RequestLifecycle(request)
        policy = self.config.deadline_policy
        if policy is not None:
            rel = request.deadline_s if request.deadline_s is not None else policy.default_deadline_s
            if rel is not None:
                lc.deadline_abs = request.arrival_s + rel
        return lc

    # ----------------------------------------------------------- router surface

    @property
    def load_requests(self) -> int:
        """Requests the engine is responsible for but has not finished:
        queued, resident, swapped out, and submitted-but-not-yet-arrived.
        The router's ``least_loaded`` policy reads this as queue depth."""
        running = self.running
        return len(self._queue) + len(running.seqs) + len(running.parked) + len(self._pending)

    @property
    def resident_pages(self) -> int:
        """Physical pages currently held by resident/swapped sequences."""
        return self.allocator.used_pages

    @property
    def tbt_samples(self) -> List[float]:
        """Per-token inter-arrival samples (a copy of the report's)."""
        return list(self.report.tbt_samples)

    @property
    def decoded(self) -> Dict[int, list]:
        """``req_id -> [per-step decode hidden states]`` of an executed run
        (empty when analytical); read-only — the bit-exactness witness the
        cross-checks in :mod:`repro.serving.crosscheck` compare."""
        return self._runner.decoded if self._runner is not None else {}

    def submit(self, request: Request) -> RequestLifecycle:
        """Hand the engine one more request (router dispatch path).

        Requests must be submitted in arrival order — the pending queue is
        a sorted deque, exactly like a trace passed to the constructor.
        """
        if self._pending and request.arrival_s < self._pending[-1].request.arrival_s:
            raise ValueError(
                f"requests must be submitted in arrival order: "
                f"{request.arrival_s} arrives before the pending tail "
                f"{self._pending[-1].request.arrival_s}"
            )
        lc = self._make_lifecycle(request)
        self.lifecycles.append(lc)
        self._pending.append(lc)
        return lc

    def _reject_impossible(self, head: RequestLifecycle) -> bool:
        """Reject a request that could never finish with the pool to itself;
        admitting it would only preempt-thrash.  Under swap preemption the
        binding constraint is the *device* tier: a sequence's own decode
        working set (all its pages) must be device-resident at once."""
        if self.table.pages_for(head.request.total_len) > min(self.n_pages, self.device_pages):
            head.rejected = True
            self._queue.popleft()
            return True
        return False

    def _probe_prefix(self, head: RequestLifecycle) -> List[int]:
        """Longest-prefix cache match for an admission, hit pages in order.

        Hits are capped one block short of the context so at least one
        token is always prefilled — the decode loop needs the last context
        token's hidden state, so a fully cached prompt would have nothing
        to seed generation from.  Pure: no counters move until the
        admission actually happens (the caller may still balk at the page
        gate and retry the probe next step).
        """
        if self.prefix_cache is None:
            return []
        ps = self.config.page_size
        return self.prefix_cache.match(
            prefix_block_keys(head.request, ps, 0, (head.context_len - 1) // ps)
        )

    def _fresh_pages_available(self, need: int, hit_pages: List[int]) -> bool:
        """Can ``need`` pages be mapped given ``hit_pages`` arrive shared?

        Matched pages that currently sit in the allocator's cached pool
        count toward ``free_pages`` but will be resurrected, not
        reallocated — so they are subtracted from the reclaimable supply
        before the fresh remainder is checked.
        """
        if not self.config.prefix_share:
            return need <= self.allocator.free_pages
        resurrected = sum(1 for p in hit_pages if self.allocator.refcount(p) == 0)
        return need - len(hit_pages) <= self.allocator.free_pages - resurrected

    def _map_admission(self, head: RequestLifecycle, initial: int, hit_pages: List[int]) -> None:
        """Register the sequence, account the hit, bind the runner.

        In sharing mode the hit pages are mapped into the new sequence's
        block table (refcount acquire); in the copy diagnostic mode the
        sequence draws private pages and the runner clones the packed
        words, so the numerics are identical while nothing is shared.
        """
        share = self.config.prefix_share
        head.seq_id = self.table.add_sequence(initial, shared_pages=hit_pages if share else None)
        head.cached_tokens = len(hit_pages) * self.config.page_size
        head.registered_blocks = 0
        self.report.prefix_probe_tokens += head.context_len if self.prefix_cache else 0
        self.report.prefix_hit_tokens += head.cached_tokens
        self.report.prefix_reclaimed_pages += len(hit_pages)
        if head.admitted_s is None:
            head.admitted_s = self._clock
        if self._runner is not None:
            self._runner.on_admit(head, copy_from=None if share or not hit_pages else hit_pages)

    def _register_prefix(self, lc: RequestLifecycle) -> None:
        """Register newly prefilled page-aligned blocks with the cache.

        Runs after every prefill advance; only blocks fully written by
        prefill are registered (decode-produced blocks are not, their
        content depends on residency history).  First writer wins in the
        cache, so re-registering a hit block is a no-op.
        """
        if self.prefix_cache is None or lc.seq_id is None:
            return
        ps = self.config.page_size
        limit = min(lc.prefilled, lc.prefill_target) // ps
        if limit <= lc.registered_blocks:
            return
        pages = self.table.sequences[lc.seq_id].pages
        start = lc.registered_blocks
        for i, key in enumerate(prefix_block_keys(lc.request, ps, start, limit), start):
            self.prefix_cache.insert(key, pages[i])
        lc.registered_blocks = limit

    def _admit(self) -> None:
        """FCFS admission: one skeleton, two gate/charge policies.

        With the prefix cache on, the head's context is probed block by
        block first: hit pages are mapped instead of allocated and their
        prefill compute is skipped.

        *Whole-prompt* admission gates on the pages free right now, maps
        the whole context and charges one serial prefill step for the
        uncached suffix (:meth:`_prefill_whole`).  *Chunked* admission
        (``prefill_chunk_tokens`` set) maps only the hit pages — physical
        pages then arrive lazily, one chunk at a time — but still gates on
        the same budget: the contexts the running set has *committed* to
        plus the head's full context must fit the pool.  Without that gate
        every arrival would join the batch and page pressure would surface
        as preempt-thrash instead of queueing — and the per-format
        peak-resident numbers (the paper's "lower bits, more residents"
        chain) would be meaningless.  Chunked admission itself charges no
        time; the prefill cost lands in the mixed steps that move tokens.
        """
        cfg = self.config
        chunked = cfg.prefill_chunk_tokens is not None
        committed = self.running.committed_pages  # the chunked gate's budget
        while self._queue and len(self.running.seqs) < cfg.max_batch:
            head = self._queue[0]
            if self._reject_impossible(head):
                continue
            if self._shed_head(head):
                continue
            need = self.table.pages_for(head.context_len)
            hit_pages = self._probe_prefix(head)
            if chunked:
                need -= len(hit_pages) if cfg.prefix_share else 0
                if committed + need > self.n_pages:
                    break
                committed += need
            elif not self._fresh_pages_available(need, hit_pages):
                break
            self._queue.popleft()
            initial = len(hit_pages) * cfg.page_size if chunked else head.context_len
            self._map_admission(head, initial, hit_pages)
            head.prefilled = initial
            head.prefill_target = head.context_len
            self.running.join(head)
            if not chunked:
                self._prefill_whole(head)
            self._register_prefix(head)
        report = self.report
        report.peak_resident_batch = max(report.peak_resident_batch, len(self.running.seqs))

    def _prefill_whole(self, head: RequestLifecycle) -> None:
        """Charge (and execute) a whole-prompt admission's serial prefill of
        the uncached suffix, promoting a replay's read set under it."""
        cfg = self.config
        suffix = head.context_len - head.cached_tokens
        prefill_s = self.backend.prefill_time_ms(cfg.model, cfg.arch, suffix, cfg.n_gpus) * 1e-3
        promote_s = 0.0
        read_tokens = head.context_len if head.generated else head.cached_tokens
        if self.swap is not None and read_tokens:
            promote_s = self.swap.promote_read_set(head, read_tokens, prefill_s)
        self._clock += max(prefill_s, promote_s)
        self.report.prefill_steps += 1
        if self._runner is not None:
            self._runner.prefill(head, suffix)

    def _unmap(self, lc: RequestLifecycle, *, abort: bool = False) -> None:
        """Drop ``lc``'s cache binding and pages and reset its prefill state.

        The one unmapping sequence preemption, healing and aborting share:
        runner hook first (it reads the pages' handles), then the page
        table release, then the lifecycle fields a later re-admission
        rebuilds from scratch.  ``abort`` also forgets the runner's input
        program — the request is leaving, not replaying.
        """
        if self._runner is not None:
            (self._runner.on_abort if abort else self._runner.on_preempt)(lc)
        if lc.seq_id is not None:
            self.table.release_sequence(lc.seq_id)
            lc.seq_id = None
        lc.prefilled = lc.prefill_target = lc.cached_tokens = lc.registered_blocks = 0

    def _remove(self, lc: RequestLifecycle) -> None:
        """Take ``lc`` out of the scheduler set holding it (at most one does),
        before :meth:`_unmap` forgets its seq id."""
        for leave in (self.running.leave, self.running.drop_parked, self._queue.remove):
            try:
                leave(lc)
                return
            except ValueError:
                pass

    def _requeue(self, lc: RequestLifecycle, *, heal: bool = False) -> None:
        """Release a sequence's pages and requeue it for recompute.

        The one replay transition: the generated count and the runner's
        input program are kept, the KV is rebuilt on re-admission.  Works
        mid-prefill too: the page table holds exactly the pages of the
        chunks written so far (chunk extension is all-or-nothing), so
        releasing the sequence frees precisely that reservation.

        A capacity preemption takes a resident victim; a ``heal`` — a
        page the sequence mapped died — can pull it out of the swapped
        set too, and draws on a separate budget: a request the plan keeps
        killing eventually FAILs instead of looping forever.
        """
        assert lc.seq_id is not None
        self._remove(lc)
        self._unmap(lc)
        if heal:
            lc.heals += 1
            self.report.healed_requests += 1
        else:
            lc.preemptions += 1
            self.report.preemptions += 1
        if lc.heals > self.config.max_heals:
            self._abort(lc, failed=True)
        else:
            # Requeueing at the front cannot livelock: admission rejects any
            # request whose total context exceeds the pool, so a sequence
            # that has the pool to itself always has room to grow and the
            # earliest admitted sequence always completes.
            self._queue.appendleft(lc)

    # -------------------------------------------------- faults and deadlines

    def _abort(self, lc: RequestLifecycle, *, shed=False, timed_out=False, failed=False) -> None:
        """Remove a request from the system without finishing it.

        Releases whatever it still holds (pages, runner program, queue or
        resident slot) and stamps the terminal state.
        """
        self._remove(lc)
        self._unmap(lc, abort=True)
        lc.shed, lc.timed_out, lc.failed = shed, timed_out, failed

    def _estimate_service_s(self, lc: RequestLifecycle) -> float:
        """Optimistic completion estimate for deadline-aware admission:
        the head's own prefill plus its remaining decodes priced at the
        batch it would join.  Optimistic (no queueing ahead of it, no
        faults) so shedding never drops a request that had a chance."""
        cfg = self.config
        prefill_ms = self.backend.prefill_time_ms(cfg.model, cfg.arch, lc.context_len, cfg.n_gpus)
        batch = len(self.running.seqs) + 1
        step_ms = self.backend.decode_step_ms(
            cfg.model, cfg.arch, batch, lc.request.total_len, cfg.n_gpus, tp=cfg.tp
        )
        remaining = lc.request.output_len - lc.generated
        return (prefill_ms + step_ms * remaining) * 1e-3

    def _shed_head(self, head: RequestLifecycle) -> bool:
        """Deadline-aware admission gate for the FCFS head.

        An already-expired head is timed out; a never-served head whose
        optimistic completion estimate overshoots its deadline is shed —
        graceful degradation instead of burning pages on a lost cause.
        Requests that already generated tokens (preempted or healed) are
        never shed: their work is sunk, the timeout check arbitrates.
        """
        policy = self.config.deadline_policy
        if policy is None or head.deadline_abs is None:
            return False
        if self._clock >= head.deadline_abs:
            self._queue.popleft()
            self._abort(head, timed_out=True)
            return True
        if not policy.shed_on_admission or head.generated or head.preemptions or head.heals:
            return False
        if self._clock + self._estimate_service_s(head) > head.deadline_abs:
            self._queue.popleft()
            self._abort(head, shed=True)
            return True
        return False

    def _enforce_deadlines(self) -> None:
        """Time out every request whose deadline the step just crossed.

        Runs after token emission, so a request finishing exactly on the
        step that crossed its deadline counts as FINISHED (though not as
        having met the deadline unless it did)."""
        if self.config.deadline_policy is None:
            return
        expired = [
            lc
            for lc in list(self.running.seqs) + list(self.running.parked) + list(self._queue)
            if lc.deadline_abs is not None and self._clock >= lc.deadline_abs
        ]
        for lc in expired:
            self._abort(lc, timed_out=True)

    def _heal_bad_pages(self) -> None:
        """Recover from the lost/corrupt pages the swap owner drains.

        Every sequence mapping a bad page is healed (its release turns the
        page's content into garbage, so the damage cannot be read), and
        any prefix-cache registration of the page is forgotten so no
        future admission maps the damaged content.  Runs at every point
        the store may have produced bad pages, always *before* numerics.
        """
        for page in self.swap.drain():
            if self.prefix_cache is not None:
                self.prefix_cache.forget_page(page)
            victims = [
                lc
                for lc in chain(self.running.seqs, self.running.parked)
                if lc.seq_id is not None and page in self.table.sequences[lc.seq_id].pages
            ]
            for lc in victims:
                self._requeue(lc, heal=True)

    def _extend(self, lc: RequestLifecycle, n_tokens: int) -> bool:
        """Grow ``lc`` by a chunk (or one decode token), evicting on demand.

        Chunk extension is all-or-nothing in the page table, so each retry
        either fully reserves the chunk or preempts the most recently
        admitted sequence and tries again; False means ``lc`` itself was
        the youngest resident and got evicted.
        """
        assert lc.seq_id is not None
        while True:
            try:
                self.table.extend_sequence(lc.seq_id, n_tokens)
                return True
            except OutOfPagesError:
                victim = self.running.seqs[-1]  # most recently admitted
                evicted_self = victim is lc
                self._requeue(victim)
                if evicted_self:
                    return False

    def _advance_prefills(self) -> List[Tuple[int, int]]:
        """Spend this step's token budget on in-flight prefills (FCFS).

        Walks the running set's ``prefilling`` book, the sequences not yet
        decode-ready in running order, so a step whose residents all
        decode reads no sequence here.  Returns the ``(context_len,
        chunk_tokens)`` descriptors of the chunks written, which is
        exactly what the mixed-step latency model prices.  A chunk whose
        sequence is later evicted in the same step stays in the list: the
        work was done before the eviction, and recompute discipline pays
        for wasted work.
        """
        budget = self.config.prefill_chunk_tokens
        chunks: List[Tuple[int, int]] = []
        if budget is None:
            return chunks  # whole-prompt admission already prefilled everything
        for lc in list(self.running.prefilling):
            if budget <= 0:
                break
            if lc.seq_id is None:
                continue  # evicted by an earlier chunk's extension
            take = min(budget, lc.prefill_target - lc.prefilled)
            if not self._extend(lc, take):
                continue
            chunks.append((lc.prefilled, take))
            lc.prefilled += take
            if lc.prefill_done:
                self.running.prefilled(lc)
            budget -= take
            if self.swap is not None:
                self.swap.promote_read_set(lc, lc.prefilled)
            if self._runner is not None:
                # Untiered, the chunk rides the step's decode forward.  The
                # tier walk and heal run between chunks and decoders, so a
                # tiered chunk executes now.
                self._runner.prefill(lc, take, hold=self.swap is None)
            self._register_prefix(lc)
        if self.swap is not None:
            self.swap.end_chunk_reads()
        return chunks

    def _grow_decoders(
        self, ready: Sequence[RequestLifecycle]
    ) -> Tuple[List[RequestLifecycle], List[RequestLifecycle]]:
        """Reserve every still-resident decoder's next token, in decode order.

        One :meth:`PageTable.append_within_pages
        <repro.pages.page_table.PageTable.append_within_pages>` pass gives
        every decoder with room in its last page its token.  The rest sit
        at a page boundary and each takes its page through :meth:`_extend`
        in decode order, evicting the youngest resident when the pool runs
        dry.  Only they touch the pool, so page ids and evictions come out
        as growing the decoders one at a time gave them, and an evicted
        decoder's release resets its length.  Returns the decoders that
        grew and are still resident, and those of them that took a page,
        both in decode order.
        """
        decoders = [lc for lc in ready if lc.seq_id is not None]
        boundary = self.table.append_within_pages([lc.seq_id for lc in decoders])
        if not boundary:
            return decoders, []
        crossers = [decoders[at] for at in boundary]
        for lc in crossers:
            if lc.seq_id is not None:
                self._extend(lc, 1)
        return (
            [lc for lc in decoders if lc.seq_id is not None],
            [lc for lc in crossers if lc.seq_id is not None],
        )

    def _emit_tokens(self, decoders: Sequence[RequestLifecycle], crossed: int) -> None:
        """Credit one generated token to each decoder at the current clock.

        The running set books the tokens and the ``crossed`` decoders that
        took a page in one :meth:`RunningSet.advance
        <repro.serving.request.RunningSet.advance>` call, and the report
        adds the step's tokens once.  The pass over the decoders then only
        stamps times and appends the TTFT, TBT and latency samples in
        decode order; it calls out only for a decoder that finishes.
        """
        report, clock = self.report, self._clock
        self.running.advance(decoders, crossed)
        report.total_generated_tokens += len(decoders)
        ttft, tbt = report.ttft_samples, report.tbt_samples
        for lc in decoders:
            if lc.first_token_s is None:
                lc.first_token_s = clock
                ttft.append(clock - lc.request.arrival_s)
            else:
                tbt.append(clock - lc.last_token_s)
            lc.last_token_s = clock
            if lc.generated >= lc.request.output_len:
                if self._runner is not None:
                    self._runner.on_finish(lc)
                self.running.leave(lc)
                self.table.release_sequence(lc.seq_id)
                lc.seq_id = None
                lc.finish_s = clock
                report.latency_samples.append(clock - lc.request.arrival_s)

    @staticmethod
    def _decode_group_shapes(
        decoders: Sequence[RequestLifecycle],
    ) -> Tuple[List[Tuple[int, int]], int]:
        """Shape groups ``(group_batch, group_seq_len)`` of one decode step,
        in first-occurrence order, and the step's longest ``seq_len``.

        Sequences at equal context length are priced as one batched
        kernel launch instead of ``batch`` independent batch-1 launches,
        and each group pays its *own* context length rather than
        everyone-at-max.  Execution groups more coarsely (the runner runs
        every decoder in one forward and the paged backend groups reads
        by ``n_blocks``); pricing keeps the context-length key so the
        modeled clock is unchanged.  Reads each decoder's ``context_len``
        once.
        """
        lengths: Dict[int, int] = {}
        get = lengths.get
        for lc in decoders:
            length = lc.context_len
            lengths[length] = get(length, 0) + 1
        groups = [(n, length + 1) for length, n in lengths.items()]
        return groups, max(lengths, default=-1) + 1

    def _step(self) -> None:
        """One scheduler step: prefill chunks + decode tokens together.

        Whole-prompt runs take this path with an empty chunk list (their
        prefill was charged at admission), which prices exactly like a
        pure decode step.  The decode-ready snapshot is taken before the
        chunks, so sequences whose prefill completes this step start
        decoding on the *next* step, mirroring whole-prompt admission
        where the first output token comes from the first decode step
        after prefill.  Past the chunks, each decoder is read in a few
        whole-batch passes: one page-table pass grows those with room in
        their last page and only page crossers extend one by one
        (:meth:`_grow_decoders`), one reads their context lengths into
        the priced shape groups (:meth:`_decode_group_shapes`), and one
        emits their tokens (:meth:`_emit_tokens`).  The tier walk and the
        heal run between the growth and the numerics.
        """
        cfg = self.config
        ready = list(self.running.ready)  # prefills finishing now decode next step
        chunks = self._advance_prefills()
        decoders, crossers = self._grow_decoders(ready)
        if not chunks and not decoders:
            return
        if self.swap is not None:
            self.swap.walk(decoders)
            # Pages the walk lost or promoted corrupt are healed before
            # the numerics read anything: the victims leave the batch.
            self._heal_bad_pages()
            decoders = [lc for lc in decoders if lc.seq_id is not None]
            crossers = [lc for lc in crossers if lc.seq_id is not None]
            if not chunks and not decoders:
                # Every decoder healed away.  The retry stalls and wasted
                # transfers still advance the clock.
                self._clock += self.swap.charge(0.0)
                return
        if self._runner is not None:
            self._runner.decode_batch(decoders)
        decode_groups, seq_len = self._decode_group_shapes(decoders)
        step_s = (
            self.backend.mixed_step_ms(
                cfg.model,
                cfg.arch,
                len(decoders),
                seq_len,
                chunks,
                cfg.n_gpus,
                decode_groups=decode_groups,
                tp=cfg.tp,
            )
            * 1e-3
        )
        self._clock += step_s if self.swap is None else self.swap.charge(step_s)
        report = self.report
        if chunks:
            report.prefill_steps += 1
        if decoders:
            report.decode_steps += 1
        if chunks and decoders:
            report.mixed_steps += 1
        report.peak_resident_batch = max(report.peak_resident_batch, len(self.running.seqs))
        self._emit_tokens(decoders, len(crossers))

    def _assert_conservation(self) -> None:
        """Pages held by resident sequences must equal the allocator's books.

        Under prefix sharing a physical page may appear in several block
        tables, so the check is refcount-aware: the table's live sequences
        must be exactly the residents, every page's refcount must equal the
        number of block tables mapping it, and used + reclaimable (free
        list + cached LRU pool) must cover the pool.  The residents are the
        ids the running set holds in the table (their number checked
        against the running and swapped lists, which catches a sequence
        dropped behind the books' back), and the table counts the ids that
        are live but not held or held but not live.  The refcount check
        reads the allocator's count of pages whose refcount differs from
        their mapping count, which the allocator keeps at its own mutators
        and at the mapping changes :class:`~repro.pages.page_table.PageTable`
        books there (exact per page and per id, so two errors cannot
        cancel).  The check reads four counters and builds nothing; the
        walks behind the books stay in
        :class:`~repro.faults.audit.InvariantAuditor` and run at
        :meth:`finish`.  The instantaneous sharing saving (mappings minus
        distinct pages) feeds the report's effective-capacity peak.
        """
        table, alloc = self.table, self.allocator
        book = table.held_ids
        used, free = alloc.used_pages, alloc.free_pages
        if (
            len(book) != len(self.running.seqs) + len(self.running.parked)
            or table.unmatched_ids
            or alloc.mismatched_pages
            or used + free != self.n_pages
        ):
            mapped, refs, live = table.mapped, alloc.refcounts, table.live_ids
            residents = {lc.seq_id for lc in chain(self.running.seqs, self.running.parked)}
            residents.discard(None)
            bad_refs = sorted(
                (page, mapped.get(page, 0), refs.get(page, 0))
                for page in mapped.keys() | refs.keys()
                if mapped.get(page, 0) != refs.get(page, 0)
            )
            raise AssertionError(
                f"page conservation violated: residents map {len(mapped)} distinct "
                f"pages, allocator says {used} used + {free} reclaimable of "
                f"{self.n_pages}; refcount mismatches: {bad_refs[:5]}; sequences "
                f"live but not resident: {sorted(live - residents)}, resident but "
                f"not live: {sorted(residents - live)}"
                + ("" if book == residents else f"; resident-id book: {sorted(book)}")
            )
        saving = table.mapped_total - len(table.mapped)
        self.report.shared_pages_peak = max(self.report.shared_pages_peak, saving)

    # -------------------------------------------------------------------- run

    def _drain_arrivals(self) -> None:
        """Move every pending request whose arrival has passed to the queue."""
        while self._pending and self._pending[0].request.arrival_s <= self._clock:
            self._queue.append(self._pending.popleft())

    def _tick(self) -> bool:
        """One scheduler iteration; False when the engine cannot advance
        (trace drained or the step cap hit).

        Exactly one iteration of the classic ``run()`` loop: drain
        arrivals, jump the clock over idle gaps, then one admission phase
        plus one step with the tier, deadline and audit machinery around
        it.
        """
        self._drain_arrivals()
        if not self._queue and not self.running.seqs and not self.running.parked:
            if not self._pending:
                return False
            self._clock = self._pending[0].request.arrival_s
            self._drain_arrivals()
        if self.config.max_steps is not None and self._steps >= self.config.max_steps:
            return False
        self._steps += 1
        if self.swap is not None:
            self.swap.start_step()
            self._heal_bad_pages()
        self._admit()
        if self.swap is not None:
            self.swap.swap_out_overflow()
            self._heal_bad_pages()
        self._step()
        self._enforce_deadlines()
        self._assert_conservation()
        if self.auditor is not None and self._steps % self.config.audit_every == 0:
            self.auditor.audit(self._steps)
        return True

    def advance_until(self, t_s: float) -> None:
        """Step the engine until its clock reaches ``t_s`` or it goes idle.

        The router's lock-step driver: replicas advance to each arrival
        before the dispatch decision, so ``least_loaded`` reads loads as
        of the arrival instant.  Steps are atomic — the clock may overshoot
        ``t_s`` by a fraction of a step, just as it does in ``run()``.
        An idle engine does not jump its clock past ``t_s``: it waits for
        whatever is submitted next.
        """
        while self._clock < t_s:
            if not self._queue and not self.running.seqs and not self.running.parked:
                if not self._pending or self._pending[0].request.arrival_s > t_s:
                    return
            if not self._tick():
                return

    def finish(self) -> ServingReport:
        """Final audit, then the report's one read-out (after ``run`` or
        ``advance_until`` drove the trace): the clock, the lifecycle folds,
        and the totals the allocator, tier store, runner and auditor keep
        themselves, before :meth:`ServingReport.finalize` derives the rest."""
        report, lifecycles = self.report, self.lifecycles
        if self.auditor is not None:
            self.auditor.audit()
            report.audits = self.auditor.audits
        else:  # the full recounts behind the per-step books
            auditor = InvariantAuditor(self.allocator, table=self.table, running=self.running)
            auditor.check_ownership(" at finish")
            auditor.check_running(" at finish")
        report.sim_time_s = self._clock
        report.n_requests = len(lifecycles)
        report.rejected = sum(lc.rejected for lc in lifecycles)
        report.shed = sum(lc.shed for lc in lifecycles)
        report.timed_out = sum(lc.timed_out for lc in lifecycles)
        report.failed = sum(lc.failed for lc in lifecycles)
        report.deadline_met = sum(lc.met_deadline for lc in lifecycles)
        report.goodput_tokens = sum(lc.request.output_len for lc in lifecycles if lc.met_deadline)
        report.prefix_evictions = self.allocator.evictions
        if self._runner is not None:
            report.executed_tokens = self._runner.executed_tokens
        if self.swap is not None:
            self.swap.read_out()
        return report.finalize()

    def run(self) -> ServingReport:
        """Drive the trace to completion (or the step cap) and report."""
        while self._tick():
            pass
        return self.finish()
