"""Data-parallel routing: exactly-once dispatch, affinity, merged reports.

The router fronts independent engine replicas; whatever the policy, the
cluster must serve every request of the trace exactly once — no drops,
no duplicates — including under page pressure that forces preemptions
inside a replica.  ``prefix_affinity`` must additionally keep each
shared-prefix group on one replica while ``round_robin`` provably
splits it (the group count is chosen coprime to the replica count, so
the split is structural, not incidental).
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ROUTER_POLICIES, ClusterReport, Router
from repro.cluster.router import _affinity_key, _stable_hash
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.serving import ContinuousBatchingEngine, EngineConfig, ServingReport, poisson_trace
from repro.serving.request import Request

KERNEL_CONFIG = BitDecodingConfig(bits=4, wn=1)

A100 = get_arch("a100")

#: How ``ClusterReport`` merges the ``ServingReport`` fields that do not sum.
CONFIG_ECHOES = (
    "format_name",
    "page_size",
    "prefill_chunk_tokens",
    "prefix_cache_enabled",
    "preemption",
    "faults_enabled",
)
DERIVED = (
    "completed",
    "sustained_tokens_per_s",
    "goodput_tokens_per_s",
    "p50_latency_s",
    "p99_latency_s",
    "p50_ttft_s",
    "p99_ttft_s",
    "p50_tbt_s",
    "p99_tbt_s",
    "max_tbt_s",
    "effective_capacity_pages",
)


def _config(n_pages=None, prefix_cache=False, page_size=64):
    return EngineConfig(
        model=LLAMA31_8B,
        arch=A100,
        fmt=int_format(4, LLAMA31_8B, residual_window=64),
        attention=BitDecoding(KERNEL_CONFIG, A100),
        page_size=page_size,
        n_pages=n_pages,
        prefix_cache=prefix_cache,
    )


def _shared_trace(n, groups, shared=0.9):
    return poisson_trace(
        n,
        200.0,
        prompt_len=512,
        output_len=16,
        seed=0,
        shared_prefix_fraction=shared,
        prefix_groups=groups,
    )


class TestExactlyOnce:
    @settings(deadline=None, max_examples=25)
    @given(
        policy=st.sampled_from(ROUTER_POLICIES),
        replicas=st.integers(min_value=1, max_value=3),
        n_requests=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=5),
        tight_pool=st.booleans(),
    )
    def test_every_request_completes_exactly_once(
        self, policy, replicas, n_requests, seed, tight_pool
    ):
        # A pool tight enough to force preemptions inside a replica must
        # not change WHAT completes, only when.
        trace = poisson_trace(n_requests, 100.0, prompt_len=256, output_len=24, seed=seed)
        router = Router(
            _config(n_pages=24 if tight_pool else None),
            trace,
            replicas=replicas,
            policy=policy,
        )
        report = router.run()
        served = [
            lc.request.req_id
            for engine in router.engines
            for lc in engine.lifecycles
            if lc.finished
        ]
        assert sorted(served) == sorted(r.req_id for r in trace)
        assert report.completed == n_requests
        assert sum(router.dispatch_counts) == n_requests
        assert sorted(router.dispatch_log) == sorted(r.req_id for r in trace)

    def test_preemption_pressure_really_happens(self):
        # Guard the property above: the tight pool must actually preempt,
        # otherwise the hypothesis case tests nothing extra.
        trace = poisson_trace(12, 100.0, prompt_len=256, output_len=24, seed=0)
        router = Router(_config(n_pages=24), trace, replicas=2, policy="round_robin")
        report = router.run()
        assert sum(r.preemptions for r in report.per_replica) > 0
        assert report.completed == 12


class TestAffinity:
    def test_affinity_keeps_groups_home_round_robin_splits(self):
        # 3 groups over 2 replicas: coprime, so round-robin alternation
        # cannot accidentally keep any group's members on one parity.
        trace = _shared_trace(12, groups=3)
        pa = Router(_config(prefix_cache=True), trace, replicas=2, policy="prefix_affinity").run()
        rr = Router(_config(prefix_cache=True), trace, replicas=2, policy="round_robin").run()
        assert pa.prefix_groups_seen == 3
        assert pa.prefix_groups_split == 0
        assert pa.cross_replica_prefix_misses == 0
        assert rr.prefix_groups_split == 3
        assert rr.cross_replica_prefix_misses > 0
        # Affinity converts the splits it avoids into prefix-cache hits.
        assert pa.prefix_hit_rate > rr.prefix_hit_rate

    def test_affinity_dispatch_is_by_group(self):
        trace = _shared_trace(12, groups=3)
        router = Router(_config(prefix_cache=True), trace, replicas=2, policy="prefix_affinity")
        router.run()
        homes = {}
        for request in trace:
            home = homes.setdefault(request.prefix_group, router.dispatch_log[request.req_id])
            assert router.dispatch_log[request.req_id] == home

    def test_unshared_requests_spread_by_request_id(self):
        # No page-aligned shared prefix: the affinity key degenerates to
        # the request's own id, so routing still spreads and no request
        # is counted as a shareable group.
        trace = poisson_trace(8, 200.0, prompt_len=256, output_len=8, seed=1)
        router = Router(_config(prefix_cache=True), trace, replicas=2, policy="prefix_affinity")
        report = router.run()
        assert report.prefix_groups_seen == 0
        assert report.cross_replica_prefix_misses == 0
        assert min(router.dispatch_counts) > 0  # not all on one replica


    def test_routing_hashes_are_pinned(self):
        """The SHA-256 routing hash reads the head-block key's ``repr``; these
        values were cut from the chained block keys, so a key redesign that
        moved any replica choice fails here."""
        shared = Request(7, 0.0, 256, 8, shared_prefix_len=160, prefix_group=3)
        private = Request(7, 0.0, 256, 8, shared_prefix_len=32, prefix_group=3)
        assert _affinity_key(shared, 64) == (("prefix", 3, 0),)
        assert _affinity_key(private, 64) == (("req", 7, 0),)
        assert _stable_hash(_affinity_key(shared, 64)) == 18200835632709209150
        assert _stable_hash(_affinity_key(private, 64)) == 16669179465118106520


class TestRoundRobinAndLeastLoaded:
    def test_round_robin_alternates(self):
        trace = poisson_trace(8, 200.0, prompt_len=128, output_len=8, seed=0)
        router = Router(_config(), trace, replicas=2, policy="round_robin")
        router.run()
        assert router.dispatch_counts == [4, 4]
        assert [router.dispatch_log[r.req_id] for r in sorted(trace, key=lambda r: r.arrival_s)][
            :4
        ] == [0, 1, 0, 1]

    def test_least_loaded_balances_within_one(self):
        trace = poisson_trace(9, 200.0, prompt_len=128, output_len=8, seed=0)
        router = Router(_config(), trace, replicas=3, policy="least_loaded")
        router.run()
        assert max(router.dispatch_counts) - min(router.dispatch_counts) <= 1


class TestValidationAndReport:
    def test_rejects_bad_replica_count(self):
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            Router(_config(), [], replicas=0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown router policy"):
            Router(_config(), [], replicas=2, policy="random")

    def test_merged_report_is_consistent(self):
        trace = _shared_trace(12, groups=3)
        router = Router(_config(prefix_cache=True), trace, replicas=2, policy="prefix_affinity")
        report = router.run()
        assert isinstance(report, ClusterReport)
        assert report.replicas == 2
        assert report.n_requests == 12
        assert report.completed == sum(r.completed for r in report.per_replica)
        assert report.total_generated_tokens == sum(
            r.total_generated_tokens for r in report.per_replica
        )
        assert report.sim_time_s == max(r.sim_time_s for r in report.per_replica)
        assert report.dispatch_counts == router.dispatch_counts
        assert report.load_imbalance >= 1.0
        d = report.to_dict()
        assert d["policy"] == "prefix_affinity"
        assert len(d["per_replica"]) == 2
        assert d["completed"] == 12

    def test_single_replica_matches_plain_engine(self):
        # replicas=1 is the degenerate cluster: same trace, same engine
        # config, so the lone replica must reproduce the plain engine run.
        trace = poisson_trace(6, 100.0, prompt_len=256, output_len=12, seed=2)
        report = Router(_config(), trace, replicas=1, policy="round_robin").run()
        plain = ContinuousBatchingEngine(_config(), trace).run()
        (replica,) = report.per_replica
        assert replica.total_generated_tokens == plain.total_generated_tokens
        assert replica.sim_time_s == pytest.approx(plain.sim_time_s)
        assert replica.decode_steps == plain.decode_steps
        # ...field for field, and so must the merged record on top of it:
        # a 1-replica ClusterReport is the plain ServingReport plus the
        # router's own keys.
        expected = plain.to_dict()
        assert replica.to_dict() == expected
        merged = report.to_dict()
        assert {key: merged[key] for key in expected} == expected
        assert sorted(set(merged) - set(expected)) == [
            "cross_replica_prefix_misses",
            "dispatch_counts",
            "load_imbalance",
            "per_replica",
            "policy",
            "prefix_groups_seen",
            "prefix_groups_split",
            "replicas",
        ]

    def test_merge_laws(self):
        # A jittered shared-prefix burst over tight pools: preemption,
        # prefix and sharing counters are non-zero on both replicas, and
        # the replicas differ, so sum, max and replica-0 are distinguishable.
        trace = poisson_trace(
            15,
            100000.0,
            prompt_len=512,
            output_len=64,
            seed=0,
            prompt_jitter=0.3,
            output_jitter=0.3,
            shared_prefix_fraction=0.5,
            prefix_groups=3,
        )
        config = _config(n_pages=40, prefix_cache=True)
        report = Router(config, trace, replicas=2, policy="round_robin").run()
        a, b = report.per_replica
        assert a.preemptions and b.preemptions and a.prefix_hit_tokens and b.prefix_hit_tokens
        assert a.shared_pages_peak != b.shared_pages_peak and a.sim_time_s != b.sim_time_s
        for f in fields(ServingReport):
            merged, parts = getattr(report, f.name), (getattr(a, f.name), getattr(b, f.name))
            if f.name in ("sim_time_s", "peak_resident_batch", "shared_pages_peak"):
                assert merged == max(parts), f.name
            elif f.name in CONFIG_ECHOES:
                assert merged == parts[0] == parts[1], f.name
            elif f.name in DERIVED:
                continue  # recomputed from merged totals, checked below
            elif f.name == "executed_tokens":
                assert merged is None
            else:
                assert merged == parts[0] + parts[1], f.name
        assert report.completed == a.completed + b.completed == 15
        assert report.sustained_tokens_per_s == report.total_generated_tokens / report.sim_time_s
        assert report.goodput_tokens_per_s == report.goodput_tokens / report.sim_time_s
        assert report.effective_capacity_pages == report.n_pages + report.shared_pages_peak
        assert report.prefix_hit_rate == report.prefix_hit_tokens / report.prefix_probe_tokens
        for name in ("latency", "ttft", "tbt"):
            samples = getattr(a, f"{name}_samples") + getattr(b, f"{name}_samples")
            for q in (50, 99):
                assert getattr(report, f"p{q}_{name}_s") == float(np.percentile(samples, q))
        assert report.max_tbt_s == max(a.max_tbt_s, b.max_tbt_s)
        # Raw samples stay off the JSON surface.
        assert not any(key.endswith("_samples") for key in report.to_dict())
