"""Merged metrics of one routed cluster run.

A cluster run is ``replicas`` independent engine runs plus the router's
own bookkeeping.  :class:`ClusterReport` *is* a
:class:`~repro.serving.report.ServingReport` — the per-replica records
merged field by field under the rules that class declares (counters sum,
the clock is the slowest replica's, percentiles are recomputed over the
merged raw samples) — so every single-engine metric, chaos counters
included, reads the same off a cluster.  On top it keeps the untouched
per-replica reports and the router's dispatch counters: per-replica
request counts, a load-imbalance ratio, and the cross-replica prefix-miss
count — how many dispatches re-prefilled a shared prefix some other
replica's cache already held, the quantity ``prefix_affinity`` drives to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.serving.report import ServingReport


@dataclass
class ClusterReport(ServingReport):
    """Outcome of one :class:`~repro.cluster.router.Router` run."""

    policy: str = "round_robin"
    per_replica: List[ServingReport] = field(default_factory=list, repr=False)
    #: Requests the router sent to each replica, in replica order.
    dispatch_counts: List[int] = field(default_factory=list)
    #: Dispatches whose shared-prefix group was already homed elsewhere.
    cross_replica_prefix_misses: int = 0
    #: Distinct shared-prefix head keys the router saw / saw split across
    #: more than one replica.
    prefix_groups_seen: int = 0
    prefix_groups_split: int = 0

    @property
    def replicas(self) -> int:
        return len(self.per_replica)

    @property
    def load_imbalance(self) -> float:
        """``max(dispatch_counts) / mean(dispatch_counts)``; 1.0 is perfectly
        balanced.  Affinity routing trades some imbalance for cache hits."""
        if not any(self.dispatch_counts):
            return 0.0
        mean = sum(self.dispatch_counts) / len(self.dispatch_counts)
        return max(self.dispatch_counts) / mean

    def to_dict(self) -> dict:
        """JSON-safe summary; per-replica reports nest as their own dicts."""
        out = super().to_dict()
        out["replicas"] = self.replicas
        out["load_imbalance"] = self.load_imbalance
        out["per_replica"] = [r.to_dict() for r in self.per_replica]
        return out
