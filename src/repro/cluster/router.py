"""Data-parallel request routing over independent engine replicas.

A :class:`Router` fronts ``replicas`` independent
:class:`~repro.serving.engine.ContinuousBatchingEngine` instances —
each with its own page pool, prefix cache and clock — and dispatches an
arrival-ordered request trace across them.  Replicas are driven in
lock-step with the trace: before each dispatch every replica is advanced
to the request's arrival time, so load snapshots (``least_loaded``) are
taken at the moment the request actually arrives, and afterwards each
replica drains its remaining work independently.

Policies:

- ``round_robin`` — dispatch ``i`` goes to replica ``i % replicas``.
  Oblivious: a shared-prefix group is sprayed across every replica, so
  each replica pays the group's prefill once and the cluster pays it
  ``replicas`` times.
- ``least_loaded`` — the replica with the fewest in-flight requests
  (resident pages, then index, break ties).  Balances queue depth but is
  just as prefix-oblivious.
- ``prefix_affinity`` — hash the request's *head-block routing key*
  (:func:`_affinity_key`), so every request
  of a shared-prefix group lands on the same replica — whose
  :class:`~repro.serving.prefix_cache.PrefixCache` already holds the
  group's pages.  Requests without a page-aligned shared prefix hash
  their own id (plain load spreading).

The hash is SHA-256 over the key's ``repr``, not builtin ``hash()`` —
block keys are tuples of strings/ints whose ``repr`` is stable, while
``hash()`` is salted per process (PYTHONHASHSEED) and would unstick the
routing between runs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Set

from repro.cluster.report import ClusterReport
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import Request, RequestLifecycle

ROUTER_POLICIES = ("round_robin", "least_loaded", "prefix_affinity")


def _affinity_key(request: Request, page_size: int):
    """The routing key of the request's head block.

    ``(("prefix", group, 0),)`` when the shared prefix covers a full
    page, else ``(("req", req_id, 0),)``: equal routing keys exactly when
    the replica's prefix cache keys the head block alike
    (:func:`~repro.serving.request.prefix_block_keys`), so equal routing
    keys mean "these requests can share cached pages".  The routing hash
    reads this tuple's ``repr``, so its shape stays fixed.
    """
    if page_size <= request.shared_prefix_len:
        return (("prefix", request.prefix_group, 0),)
    return (("req", request.req_id, 0),)


def _stable_hash(key) -> int:
    return int.from_bytes(hashlib.sha256(repr(key).encode()).digest()[:8], "big")


class Router:
    """Dispatch one request trace across ``replicas`` engine replicas."""

    def __init__(
        self,
        config: EngineConfig,
        requests: Sequence[Request],
        replicas: int,
        policy: str = "round_robin",
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if policy not in ROUTER_POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r}; pick one of {', '.join(ROUTER_POLICIES)}"
            )
        self.config = config
        self.policy = policy
        self.replicas = replicas
        #: One independent engine per replica; requests arrive via submit().
        self.engines = [ContinuousBatchingEngine(config, []) for _ in range(replicas)]
        self.requests = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        self.dispatch_counts = [0] * replicas
        #: ``req_id -> replica`` for every dispatched request.
        self.dispatch_log: Dict[int, int] = {}
        self._rr_next = 0
        #: First replica each shared-prefix head key landed on, and every
        #: replica it was ever sent to (split detection).
        self._group_home: Dict[object, int] = {}
        self._group_replicas: Dict[object, Set[int]] = {}
        #: Dispatches whose shared-prefix group was already resident on a
        #: *different* replica: each one re-prefills a prefix that some
        #: other replica's cache already holds.
        self.cross_replica_prefix_misses = 0

    # ------------------------------------------------------------- policies

    def _route(self, request: Request) -> int:
        if self.policy == "round_robin":
            idx = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.replicas
            return idx
        if self.policy == "least_loaded":
            return min(
                range(self.replicas),
                key=lambda i: (
                    self.engines[i].load_requests,
                    self.engines[i].resident_pages,
                    i,
                ),
            )
        return _stable_hash(_affinity_key(request, self.config.page_size)) % self.replicas

    def _account_prefix(self, request: Request, idx: int) -> None:
        key = _affinity_key(request, self.config.page_size)
        if key[0][0] != "prefix":  # no page-aligned shared prefix: nothing shareable
            return
        home = self._group_home.setdefault(key, idx)
        self._group_replicas.setdefault(key, set()).add(idx)
        if idx != home:
            self.cross_replica_prefix_misses += 1

    # --------------------------------------------------------------- driving

    def dispatch(self, request: Request) -> int:
        """Advance every replica to the arrival, route, submit.  Returns
        the chosen replica index."""
        for engine in self.engines:
            engine.advance_until(request.arrival_s)
        idx = self._route(request)
        self._account_prefix(request, idx)
        self.engines[idx].submit(request)
        self.dispatch_counts[idx] += 1
        self.dispatch_log[request.req_id] = idx
        return idx

    def run(self) -> ClusterReport:
        """Dispatch the whole trace, drain every replica, merge reports."""
        for request in self.requests:
            self.dispatch(request)
        reports = [engine.run() for engine in self.engines]
        return ClusterReport.merged(
            reports,
            policy=self.policy,
            per_replica=reports,
            dispatch_counts=list(self.dispatch_counts),
            cross_replica_prefix_misses=self.cross_replica_prefix_misses,
            prefix_groups_seen=len(self._group_replicas),
            prefix_groups_split=sum(len(m) > 1 for m in self._group_replicas.values()),
        )

    # ------------------------------------------------------- merged read-outs

    @property
    def lifecycles(self) -> List[RequestLifecycle]:
        """Every replica's request lifecycles, in replica order."""
        return [lc for engine in self.engines for lc in engine.lifecycles]

    @property
    def decoded(self) -> Dict[int, list]:
        """``req_id -> [per-step decode hidden states]`` over all replicas
        (a request is dispatched to exactly one, so the maps are disjoint)."""
        merged: Dict[int, list] = {}
        for engine in self.engines:
            merged.update(engine.decoded)
        return merged
