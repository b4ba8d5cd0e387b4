"""Swap preemption: where a page lives and what moving it costs.

A ``preemption="swap"`` engine demotes a capacity victim's pages off the
device tier of a :class:`~repro.pages.tiers.TieredPageStore` and
promotes them back on resume instead of replaying its prefill.
:class:`SwapPreemption` owns everything such an engine does beyond
recompute.

**Faults, deadlines and degradation** (``EngineConfig.faults`` /
``deadline_policy`` / ``audit_every``): a
:class:`~repro.faults.plan.FaultSpec` arms the tier store with a
deterministic :class:`~repro.faults.plan.FaultPlan` — transient transfer
faults retry with backoff (priced as stall), permanent faults and
in-flight corruption (caught by demote/promote checksums) surface as
*bad pages* the engine heals by recompute-style replay of just the
affected sequences before any numerics read them, and slow steps dilate
the compute.  A :class:`~repro.serving.request.DeadlinePolicy` adds
per-request deadlines: admission sheds a head that cannot finish in
time, expired requests are timed out and reclaimed, and the report
splits goodput (tokens of deadline-meeting requests) from raw
throughput.  An :class:`~repro.faults.audit.InvariantAuditor`
cross-checks allocator, block tables and tier bijection every
``audit_every`` steps.  All decisions are schedule-level, so an
analytical and an executed chaos run stay in lock-step — the
``serve-sim --chaos --execute`` cross-check proves recovered decodes
bit-identical to a fault-free run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.model.memory import page_bytes
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore
from repro.serving.request import RequestLifecycle, RunningSet

__all__ = ["SwapPreemption"]


class SwapPreemption:
    """The tier store, the swapped set and the tier charge of one engine.

    It moves sequences between the engine's running set's ``seqs`` and its
    ``parked`` deque (the swapped set), keeping the set's books through
    ``join``/``leave``, and counts into the engine's report.  The engine calls it at fixed
    points of every scheduler step, in this order
    (healing, :meth:`drain`, runs after each phase that may lose or
    corrupt pages, always before numerics read them):

    1. :meth:`start_step` — reset the store's per-step buckets and pins,
       resume swapped sequences;
    2. admission — :meth:`promote_read_set` under a whole-prompt replay
       or prefix-cache hit;
    3. :meth:`swap_out_overflow` — fit the decode working set;
    4. prefill chunks — each chunk's :meth:`promote_read_set` (its own pin
       phase), then :meth:`end_chunk_reads`;
    5. :meth:`walk` — the decoders' residency walk;
    6. :meth:`charge` — price the step's tier traffic.
    """

    def __init__(self, config, table: PageTable, running: RunningSet, report):
        # Each engine builds its own plan from the spec: an analytical and
        # an executed run of the same config issue identical transfer
        # sequences, so their plans draw identical fault outcomes.
        self.tiers = TieredPageStore(
            table.allocator,
            config.device_pages,
            config.host_pages,
            config.disk_pages,
            page_nbytes=page_bytes(config.model, config.fmt, config.page_size),
            faults=FaultPlan(config.faults) if config.faults is not None else None,
        )
        #: The engine's running set.  Swap-preempted sequences sit in its
        #: ``parked`` deque: pages still mapped (demoted off the device
        #: tier), resumed FCFS when the device working set fits, and still
        #: in its resident book.
        self._config, self._table, self._running, self._report = config, table, running, report
        #: The engine's :class:`~repro.attn.runner.ModelRunner` when it
        #: executes tokens; it stashes residual rows across a swap.
        self.runner = None

    def _pages(self, lc: RequestLifecycle) -> Tuple[int, ...]:
        return self._table.sequences[lc.seq_id].pages

    def _decode_working_pages(self) -> int:
        """Device pages the next decode step needs resident at once: every
        decode-ready sequence's pages after its one-token grow."""
        return sum(self._table.pages_for(lc.context_len + 1) for lc in self._running.ready)

    def start_step(self) -> None:
        """Reset the per-step buckets and pins, then promote swapped
        sequences back, FCFS, while their working set fits the device tier
        next to the resident decoders'."""
        self.tiers.start_step()
        parked = self._running.parked
        while parked and len(self._running.seqs) < self._config.max_batch:
            cand = parked[0]
            need = self._table.pages_for(cand.context_len + 1)
            if self._decode_working_pages() + need > self._config.device_pages:
                break
            parked.popleft()
            if self.runner is not None:
                self.runner.on_swap_in(cand)
            # Promotion rides ahead of the step's compute (overlappable);
            # anything the model still misses faults in the measured path.
            self.tiers.ensure_resident(self._pages(cand), prefetch=True)
            self._running.join(cand)
            self._report.swap_ins += 1

    def _swap_out(self, victim: RequestLifecycle) -> None:
        """Demote a decode-ready sequence's pages off the device tier.

        Unlike recompute preemption nothing is released or requeued: the
        page table keeps the sequence mapped (the allocator still counts
        its pages used), the tier store moves the physical content to host
        frames (priced d2h), and the runner stashes only the FP16 residual
        rows that live outside the pages.
        """
        if self.runner is not None:
            self.runner.on_swap_out(victim)
        self.tiers.demote(self._pages(victim))
        self._running.leave(victim, parked=True)
        self._report.swap_outs += 1

    def swap_out_overflow(self) -> None:
        """Shrink the decode working set to device capacity by swapping out
        the most recently admitted decode-ready sequences (mirroring the
        recompute victim order).  At least one decoder always stays — a
        single sequence is guaranteed to fit by admission-time rejection."""
        while self._decode_working_pages() > self._config.device_pages:
            ready = self._running.ready
            if len(ready) <= 1:
                break
            self._swap_out(ready[-1])

    def promote_read_set(self, lc, tokens: int, prefill_s: Optional[float] = None) -> float:
        """Promote the full pages under ``lc``'s first ``tokens`` before a
        prefill pass reads them; returns the promotion's seconds (0 for a
        chunk, whose transfers :meth:`charge` overlaps with the mixed step).

        A fresh prompt only *writes* pages, unless prefix-cache hits sit
        under it; a replay (recompute preemption or a heal) re-decodes its
        consumed tokens over the context's *full* pages; a chunk attends
        every full page written so far.  The promotion is schedule-level:
        the analytical run issues the same transfers, which keeps an
        executed chaos run's fault draws in lock-step, and ``fault_in`` is
        a strict no-op on a resident set, so a fault-free schedule is
        untouched.  A whole-prompt admission passes its serial
        ``prefill_s``: the DMA rides under that pass, only its overhang
        surfaces, and the absorbed part must not be charged again by
        :meth:`charge` (retry stalls stay in the fault bucket: a failed DMA
        always blocks).  A chunk reads *now*, so its pins are a phase of
        their own: one sequence's read set always fits the device tier,
        while pins left standing would ride on top of the decoders'
        budgeted working set and push the residency walk onto pinned
        victims the executed decode then faults back outside the schedule.
        """
        read_set = self._pages(lc)[: tokens // self._table.page_size]
        if prefill_s is None:
            self.tiers.unpin_all()
            self.tiers.fault_in(read_set, prefetch=True)
            return 0.0
        promote_s = self.tiers.fault_in(read_set, prefetch=True) * 1e-3
        self.tiers.absorb_prefetch(promote_s * 1e3)
        self._report.offload_overlapped_s += min(promote_s, prefill_s)
        return promote_s

    def end_chunk_reads(self) -> None:
        """Close the step's chunk read phases: their pins may be victimized."""
        self.tiers.unpin_all()

    def walk(self, decoders: Sequence[RequestLifecycle]) -> None:
        """Residency walk in decode order: the first sequence's cold pages
        fault (nothing to hide behind), every later sequence's pages are
        prefetched under the preceding tile walks."""
        for i, lc in enumerate(decoders):
            self.tiers.ensure_resident(self._pages(lc), prefetch=i > 0)

    @property
    def has_bad_pages(self) -> bool:
        """Pages lost or corrupted that no :meth:`drain` has taken yet."""
        return self.tiers.has_bad_pages

    def drain(self) -> List[int]:
        """Take the store's lost/corrupt ledger, counting every page healed;
        the caller heals each sequence that maps one."""
        if not self.tiers.has_bad_pages:
            return []
        bad = list(self.tiers.drain_bad_pages())
        self._report.healed_pages += len(bad)
        return bad

    def charge(self, step_s: float) -> float:
        """Price a step's tier traffic on top of its compute time.

        Synchronous faults stall in full; prefetched/demoted transfers
        overlap the compute and only their overhang surfaces.  A fault
        plan may dilate the whole step (clock skew / noisy neighbor);
        the dilation is applied to the compute before the overlap math,
        since a slow step hides *more* prefetch, not less.
        """
        report, plan = self._report, self.tiers.fault_plan
        if plan is not None:
            factor = plan.step_factor()
            if factor != 1.0:
                report.slow_steps += 1
                report.slow_step_stall_s += step_s * (factor - 1.0)
                step_s *= factor
        stall_s = self.tiers.step_fault_ms * 1e-3
        prefetch_s = self.tiers.step_prefetch_ms * 1e-3
        report.offload_stall_s += stall_s
        report.offload_overlapped_s += min(prefetch_s, step_s)
        return step_s + stall_s + max(0.0, prefetch_s - step_s)

    def read_out(self) -> None:
        """Copy the totals the tier store keeps itself into the report."""
        report, tiers = self._report, self.tiers
        report.offload_h2d_bytes = tiers.h2d_bytes
        report.offload_d2h_bytes = tiers.d2h_bytes
        report.offload_disk_bytes = tiers.disk_bytes
        report.offload_faults = tiers.faults
        report.transfer_retries = tiers.transfer_retries
        report.retry_backoff_s = tiers.retry_backoff_ms_total * 1e-3
        report.checksum_failures = tiers.checksum_failures
        report.lost_pages = tiers.lost_pages
