"""Executed cluster serving: sharded TP decode is bit-exact, config gates.

The strongest cluster claim: with ``execute=True`` at ``tp=2`` behind
routed replicas, every replica's decoded streams must be bit-identical
to a single-rank (``tp=1``) rerun of exactly the requests that replica
served, and the merged output to one single-rank engine serving the
whole trace.  Both reruns price steps differently, so they run a
different schedule — a theorem only while numerics are
schedule-independent: with the prefix cache on (a hit makes the suffix
prefill attend dequantized prefix KV, a miss exact FP32 KV, and pool
pressure decides which) ``crosscheck`` does not owe them, and the
sharded run is tied to the analytical schedule and to its own
copy-mode twin instead.
"""

import pytest

from repro.attn import PagedBitBackend
from repro.cluster import ShardedPagedBackend
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.model.memory import int_format
from repro.serving import EngineConfig, poisson_trace
from repro.serving.crosscheck import crosscheck, int4_stack

A100 = get_arch("a100")
STACK = int4_stack(TINY, A100)


def _crosscheck(trace, policy, prefix_cache=False):
    return crosscheck(
        STACK,
        trace,
        replicas=2,
        policy=policy,
        n_gpus=2,
        tp=2,
        n_pages=96,
        max_batch=8,
        max_steps=600,
        prefix_cache=prefix_cache,
    )


def _common():
    """Raw executed ``EngineConfig`` kwargs, for the validation tests below."""
    return dict(
        model=TINY, arch=A100, fmt=STACK.fmt, page_size=STACK.nr, n_pages=96, execute=True
    )


class TestExecutedCluster:
    @pytest.mark.parametrize("prefix_cache", [False, True])
    def test_tp2_replicas2_bit_exact_vs_single_rank_reruns(self, prefix_cache):
        # Near-simultaneous arrivals, so a group's requests are co-resident
        # and the prefix row's capacity expectation holds too.
        trace = poisson_trace(
            8,
            5000.0,
            prompt_len=96,
            output_len=12,
            seed=3,
            shared_prefix_fraction=0.5,
            prefix_groups=3,
        )
        result = _crosscheck(trace, "prefix_affinity", prefix_cache)
        assert result.reports["executed"].completed == len(trace)
        assert result.checks["exactly_once_across_replicas"]
        # The single-rank reruns run a different schedule: owed only
        # while numerics are schedule-independent (prefix cache off).
        for name in ("tp_decode_bit_exact_vs_single_rank", "cluster_bit_exact_vs_single_engine"):
            assert (name in result.checks) == (not prefix_cache)
        assert ("share_vs_copy_bit_exact" in result.checks) == prefix_cache
        assert result.ok, result.checks

    def test_without_prefix_cache_matches_whole_trace_single_engine(self):
        # With the prefix cache off there is no hit-pattern dependence,
        # so the merged cluster output must equal one engine serving the
        # whole trace at tp=1.
        trace = poisson_trace(6, 100.0, prompt_len=64, output_len=10, seed=1)
        result = _crosscheck(trace, "round_robin")
        assert result.checks["cluster_bit_exact_vs_single_engine"]
        assert result.ok, result.checks


class TestConfigValidation:
    def test_tp_must_be_positive(self):
        with pytest.raises(ValueError, match="tp must be >= 1"):
            EngineConfig(
                model=TINY,
                arch=A100,
                fmt=int_format(4, TINY),
                attention=STACK.kernel,
                tp=0,
            )

    def test_tp_must_divide_kv_heads(self):
        with pytest.raises(ValueError, match="does not divide"):
            EngineConfig(
                model=TINY,
                arch=A100,
                fmt=int_format(4, TINY),
                attention=STACK.kernel,
                tp=3,
                n_gpus=3,
            )

    def test_tp_spans_the_engines_gpus(self):
        with pytest.raises(ValueError, match="n_gpus must equal"):
            EngineConfig(
                model=TINY,
                arch=A100,
                fmt=int_format(4, TINY),
                attention=STACK.kernel,
                tp=2,
                n_gpus=1,
            )

    def test_execute_tp_needs_matching_sharded_backend(self):
        kernel = STACK.kernel
        with pytest.raises(ValueError, match="ShardedPagedBackend"):
            EngineConfig(backend=PagedBitBackend(kernel), n_gpus=2, tp=2, **_common())
        with pytest.raises(ValueError, match="ShardedPagedBackend"):
            EngineConfig(
                backend=ShardedPagedBackend(kernel, tp=4), n_gpus=2, tp=2, **_common()
            )

    def test_execute_tp1_rejects_a_sharded_backend(self):
        # The other mismatch direction: pricing at tp=1 (no all-reduce
        # tax, full-head attention) while executing a 2-rank split.
        with pytest.raises(ValueError, match="got ShardedPagedBackend with tp=2"):
            EngineConfig(backend=ShardedPagedBackend(STACK.kernel, tp=2), **_common())
        # A degree-1 "shard" is the plain backend and stays accepted.
        EngineConfig(backend=ShardedPagedBackend(STACK.kernel, tp=1), **_common())
