"""Cluster layer: tensor-parallel page sharding + data-parallel replicas.

Two orthogonal ways to put more GPUs behind the serving engine:

- :mod:`repro.cluster.sharding` — ONE engine whose decode attention is
  head-split across ``tp`` tensor-parallel ranks
  (:class:`ShardedPagedBackend`), each rank reading its head slice of
  the one ordinary paged pool — bit-identical to the single-rank run
  and priced with the per-step all-reduce tax.
- :mod:`repro.cluster.router` — ``replicas`` independent engines behind
  a :class:`Router` that dispatches arriving requests by policy
  (``round_robin`` / ``least_loaded`` / ``prefix_affinity``), merged
  into one :class:`ClusterReport`.

They compose: each replica can itself run ``tp``-sharded.
"""

from repro.cluster.report import ClusterReport
from repro.cluster.router import ROUTER_POLICIES, Router
from repro.cluster.sharding import ShardedPagedBackend

__all__ = [
    "ClusterReport",
    "ROUTER_POLICIES",
    "Router",
    "ShardedPagedBackend",
]
