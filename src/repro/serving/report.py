"""Simulation metrics: the one accounting record of a run.

The report carries exactly the quantities the paper's serving argument is
about — sustained tokens/s, request-latency percentiles, and the peak
resident batch the page pool supported — plus the scheduler counters
(preemptions, rejections, step counts) the tests assert on.  The engine
holds one from construction and counts into it at the event only what no
request's lifecycle keeps (steps, tier and fault totals, TBT samples);
per-request counts and the TTFT / latency samples are folded from the
lifecycles once, at ``finish()``.  Rates and percentiles are derived from
those counts and the raw samples in exactly one place,
:meth:`ServingReport.finalize`.

A cluster run is the *same record merged over replicas*
(:meth:`ServingReport.merged`).  Each field declares its merge rule
where it is declared: counters, capacities and raw samples **sum** (the
default), clocks and peaks take the **max** (replicas run concurrently),
configuration echoes come from **replica 0**, and derived fields are
**recomputed** by ``finalize`` from the merged totals and merged samples
(percentiles do not average).

TTFT (time to first token) and TBT (time between tokens) are reported as
separate percentile families because chunked prefill trades one for the
other: splitting a long prompt into scheduler quanta stops it head-of-line
blocking resident decodes (p99 TBT collapses) at the cost of the prompt's
own first token arriving later (TTFT grows).  A single latency number
would hide exactly the trade-off the ``prefill_chunk_tokens`` knob exists
to tune.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import itemgetter
from typing import List, Optional, Sequence

import numpy as np

#: Merge rules: a configuration echo is read off replica 0; a derived field
#: is not merged at all — :meth:`ServingReport.finalize` recomputes it.
_replica0 = itemgetter(0)
_DERIVED = None


def _merged(rule, default=MISSING):
    """A field whose cluster value is ``rule(per-replica values)``."""
    return field(default=default, metadata={"merge": rule})


def _total(values):
    """The default rule: counters and capacities sum, sample lists
    concatenate; ``executed_tokens`` stays None on analytical replicas."""
    if isinstance(values[0], list):
        return [sample for samples in values for sample in samples]
    return None if None in values else sum(values)


def _percentile(values: List[float], q: float) -> Optional[float]:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class ServingReport:
    """Outcome of one continuous-batching simulation."""

    format_name: str = _merged(_replica0)
    #: Physical pages in the pool (summed over replicas).
    n_pages: int
    page_size: int = _merged(_replica0)
    prefill_chunk_tokens: Optional[int] = _merged(_replica0, None)
    n_requests: int = 0
    completed: int = _merged(_DERIVED, 0)
    rejected: int = 0
    preemptions: int = 0
    prefill_steps: int = 0
    decode_steps: int = 0
    mixed_steps: int = 0
    #: Wall clock of the run; a cluster is done when its slowest replica is.
    sim_time_s: float = _merged(max, 0.0)
    total_generated_tokens: int = 0
    peak_resident_batch: int = _merged(max, 0)
    sustained_tokens_per_s: float = _merged(_DERIVED, 0.0)
    p50_latency_s: Optional[float] = _merged(_DERIVED, None)
    p99_latency_s: Optional[float] = _merged(_DERIVED, None)
    p50_ttft_s: Optional[float] = _merged(_DERIVED, None)
    p99_ttft_s: Optional[float] = _merged(_DERIVED, None)
    p50_tbt_s: Optional[float] = _merged(_DERIVED, None)
    p99_tbt_s: Optional[float] = _merged(_DERIVED, None)
    #: The single worst inter-token gap — the headline stall number.  A
    #: p99 can miss a handful of giant whole-prompt stalls when decodes
    #: outnumber admissions 100:1; the max never does.
    max_tbt_s: Optional[float] = _merged(_DERIVED, None)
    #: Tokens actually run through the numeric model (execute mode); None
    #: for purely analytical runs.  Must equal ``total_generated_tokens``
    #: when set — the scheduler and the model runner advance in lock-step.
    executed_tokens: Optional[int] = None
    #: Whether the engine probed a prefix cache at admission.
    prefix_cache_enabled: bool = _merged(_replica0, False)
    #: Prompt tokens served from the prefix cache (prefill compute skipped).
    prefix_hit_tokens: int = 0
    #: Prompt tokens probed against the cache (every admission's context).
    prefix_probe_tokens: int = 0
    #: Pages resurrected or shared instead of freshly prefilled (cumulative
    #: count of hit pages across admissions — the "reclaimed" metric): the
    #: hit tokens in whole pages.
    prefix_reclaimed_pages: int = _merged(_DERIVED, 0)
    #: Cached refcount-0 pages the allocator evicted (LRU) under pressure.
    prefix_evictions: int = 0
    #: Peak pages saved by sharing at any instant: sum over resident pages
    #: of (refcount - 1) at its maximum.
    shared_pages_peak: int = _merged(max, 0)
    #: Pool capacity the trace effectively saw: physical pages plus the
    #: peak concurrent sharing saving.  Equals ``n_pages`` when nothing
    #: was ever shared.
    effective_capacity_pages: int = _merged(_DERIVED, 0)
    #: Preemption discipline the run used ("recompute" or "swap").
    preemption: str = _merged(_replica0, "recompute")
    #: Tier geometry of a swap run; a recompute run reports the whole pool
    #: as the device tier and zero host/disk.
    device_pages: int = 0
    host_pages: int = 0
    disk_pages: int = 0
    #: Sequences demoted to the host tier (swap preemption) / promoted back.
    swap_outs: int = 0
    swap_ins: int = 0
    #: Cumulative migration traffic of the tier store.
    offload_h2d_bytes: int = 0
    offload_d2h_bytes: int = 0
    offload_disk_bytes: int = 0
    #: Pages fetched synchronously because compute touched them cold.
    offload_faults: int = 0
    #: Stall seconds the faults added to the clock (never overlapped).
    offload_stall_s: float = 0.0
    #: Prefetch/demote transfer seconds hidden under compute.
    offload_overlapped_s: float = 0.0
    #: Whether a fault-injection plan was active for this run.
    faults_enabled: bool = _merged(_replica0, False)
    #: Failed transfer attempts that were retried (each priced in full).
    transfer_retries: int = 0
    #: Exponential-backoff seconds charged between retry attempts.
    retry_backoff_s: float = 0.0
    #: Pages whose content failed its promote-time integrity check.
    checksum_failures: int = 0
    #: Pages whose content a permanent transfer fault destroyed.
    lost_pages: int = 0
    #: Lost/corrupt pages recovered by recompute-style replay.
    healed_pages: int = 0
    #: Sequences replayed because a page they mapped died.
    healed_requests: int = 0
    #: Scheduler steps the plan slowed down, and the extra seconds added.
    slow_steps: int = 0
    slow_step_stall_s: float = 0.0
    #: Requests refused by deadline-aware admission / expired in-system /
    #: dropped after exhausting the heal budget.
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    #: Finished requests that met their deadline (best-effort always does).
    deadline_met: int = 0
    #: Output tokens of those requests, and the same as a rate.
    goodput_tokens: int = 0
    goodput_tokens_per_s: float = _merged(_DERIVED, 0.0)
    #: Invariant-auditor passes completed during the run.
    audits: int = 0
    #: Arrival → finish, arrival → first token, token → next token.
    latency_samples: List[float] = field(default_factory=list, repr=False)
    ttft_samples: List[float] = field(default_factory=list, repr=False)
    tbt_samples: List[float] = field(default_factory=list, repr=False)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of probed prompt tokens served from the cache (summed
        tokens, so a cluster's rate is not an average of replica rates)."""
        if self.prefix_probe_tokens == 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_probe_tokens

    def finalize(self) -> "ServingReport":
        """Derive every rate, percentile and fold from counts and samples.

        The only place they are computed — for one engine's record and
        for a merged cluster record alike.  Idempotent.
        """
        elapsed = self.sim_time_s
        self.completed = len(self.latency_samples)
        self.sustained_tokens_per_s = self.total_generated_tokens / elapsed if elapsed > 0 else 0.0
        self.goodput_tokens_per_s = self.goodput_tokens / elapsed if elapsed > 0 else 0.0
        self.p50_latency_s = _percentile(self.latency_samples, 50.0)
        self.p99_latency_s = _percentile(self.latency_samples, 99.0)
        self.p50_ttft_s = _percentile(self.ttft_samples, 50.0)
        self.p99_ttft_s = _percentile(self.ttft_samples, 99.0)
        self.p50_tbt_s = _percentile(self.tbt_samples, 50.0)
        self.p99_tbt_s = _percentile(self.tbt_samples, 99.0)
        self.max_tbt_s = max(self.tbt_samples, default=None)
        self.effective_capacity_pages = self.n_pages + self.shared_pages_peak
        self.prefix_reclaimed_pages = self.prefix_hit_tokens // self.page_size
        return self

    @classmethod
    def merged(cls, reports: Sequence["ServingReport"], **extra) -> "ServingReport":
        """``reports``' replicas as one finalized record: every field merged
        under the rule it declares; ``extra`` fills a subclass's own fields."""
        rules = {f.name: f.metadata.get("merge", _total) for f in fields(ServingReport)}
        totals = {
            name: rule([getattr(r, name) for r in reports])
            for name, rule in rules.items()
            if rule is not _DERIVED
        }
        return cls(**totals, **extra).finalize()

    def to_dict(self) -> dict:
        """JSON-safe summary: None percentiles stay None; the bulk fields
        (``repr=False``: raw samples, nested reports) are left out."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        out["prefix_hit_rate"] = self.prefix_hit_rate
        return out
