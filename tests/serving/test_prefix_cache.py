"""Prefix caching end to end: hit accounting, sharing, and bit-exactness.

The cache reuses page-aligned flushed packed blocks across requests with
a common prompt prefix.  Three contracts under test:

1. *Priced and executed alike*: with ``execute=True`` the schedule is
   byte-for-byte the analytical one — hits skip the same prefill compute
   in both worlds.
2. *Sharing is free*: ``prefix_share=False`` is a diagnostic mode that
   copies hit pages into private ones instead of mapping them shared.
   Schedules and decoded hidden states must be bit-identical either way —
   copy-on-write and refcounts change *where* bits live, never the bits.
3. *Never worse*: caching on beats caching off on a shared-prefix trace
   (hit rate > 0, strictly higher tokens/s, more effective capacity).
"""

import pytest

from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import ContinuousBatchingEngine, EngineConfig, poisson_trace
from repro.serving.crosscheck import decoded_bit_exact, int4_stack

#: The INT4 stack's residual block size = its executed page size.
NR = int4_stack(TINY, get_arch("a100")).nr


def _trace(n=8, rate=5000.0, prompt=96, output=24, shared=0.5, groups=1, seed=7):
    # High arrival rate so requests overlap in residence: concurrent
    # sharing (not just cached-pool resurrection) is what stresses CoW.
    return poisson_trace(
        n, rate, prompt_len=prompt, output_len=output, seed=seed,
        shared_prefix_fraction=shared, prefix_groups=groups,
    )


def _engine(a100, trace, execute=False, n_pages=96, max_batch=8, prefill_chunk=None, **over):
    config = int4_stack(TINY, a100).config(
        execute,
        n_pages=n_pages,
        max_batch=max_batch,
        max_steps=2000,
        prefill_chunk_tokens=prefill_chunk,
        **over,
    )
    return ContinuousBatchingEngine(config, trace)


class TestAnalytical:
    def test_hits_on_shared_prefix_trace(self, a100):
        trace = _trace()
        report = _engine(a100, trace, prefix_cache=True).run()
        assert report.prefix_cache_enabled
        assert report.prefix_hit_tokens > 0
        assert report.prefix_probe_tokens > 0
        assert 0.0 < report.prefix_hit_rate <= 1.0
        assert report.shared_pages_peak > 0
        assert report.effective_capacity_pages > 96

    def test_no_hits_without_shared_prefix(self, a100):
        trace = _trace(shared=0.0)
        report = _engine(a100, trace, prefix_cache=True).run()
        assert report.prefix_hit_tokens == 0
        assert report.prefix_hit_rate == 0.0

    def test_disabled_reports_zeroes(self, a100):
        report = _engine(a100, _trace()).run()
        assert not report.prefix_cache_enabled
        assert report.prefix_hit_tokens == 0
        assert report.effective_capacity_pages == 96

    def test_caching_strictly_helps(self, a100):
        trace = _trace()
        on = _engine(a100, trace, prefix_cache=True).run()
        off = _engine(a100, trace).run()
        assert on.total_generated_tokens == off.total_generated_tokens
        assert on.sustained_tokens_per_s > off.sustained_tokens_per_s
        assert on.effective_capacity_pages > off.effective_capacity_pages

    def test_prefix_groups_partition_hits(self, a100):
        # Two disjoint prefix groups: requests only hit within their group.
        trace = _trace(groups=2)
        report = _engine(a100, trace, prefix_cache=True).run()
        assert report.prefix_hit_tokens > 0

    def test_eviction_under_tiny_pool(self, a100):
        # Pool too small to keep every group's prefix cached: the LRU
        # pool must recycle registered pages without ever wedging.
        trace = _trace(n=10, prompt=64, output=8, groups=5)
        report = _engine(a100, trace, n_pages=10, max_batch=2, prefix_cache=True).run()
        assert report.completed == 10
        assert report.prefix_evictions > 0

    def test_share_flag_requires_cache(self):
        # The validation fires before any field is touched, so the other
        # required fields can be placeholders.
        with pytest.raises(ValueError, match="prefix_share"):
            EngineConfig(model=TINY, arch=None, fmt=None, prefix_share=False)


class TestExecuted:
    def test_schedule_matches_analytical(self, a100):
        trace = _trace()
        analytical = _engine(a100, trace, prefix_cache=True).run()
        executed = _engine(a100, trace, execute=True, prefix_cache=True).run()
        assert executed.prefix_hit_tokens == analytical.prefix_hit_tokens
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.decode_steps == analytical.decode_steps
        assert executed.prefill_steps == analytical.prefill_steps
        assert executed.preemptions == analytical.preemptions
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)
        assert executed.executed_tokens == executed.total_generated_tokens

    def test_share_vs_copy_is_bit_exact(self, a100):
        """The load-bearing numerics check: mapping hit pages shared must
        decode the exact same hidden states as copying them privately."""
        trace = _trace()
        shared_eng = _engine(a100, trace, execute=True, prefix_cache=True)
        shared = shared_eng.run()
        copied_eng = _engine(
            a100, trace, execute=True, prefix_cache=True, prefix_share=False
        )
        copied = copied_eng.run()
        assert shared.sim_time_s == pytest.approx(copied.sim_time_s)
        assert shared.prefix_hit_tokens == copied.prefix_hit_tokens
        # Sharing actually happened in the shared run and not in the copy run.
        assert shared.shared_pages_peak > 0
        assert copied.shared_pages_peak == 0
        assert decoded_bit_exact(shared_eng.decoded, copied_eng.decoded)

    def test_executes_under_chunked_prefill(self, a100):
        trace = _trace(prompt=70, output=10)
        analytical = _engine(
            a100, trace, prefix_cache=True, prefill_chunk=NR, n_pages=64
        ).run()
        executed = _engine(
            a100, trace, execute=True, prefix_cache=True, prefill_chunk=NR, n_pages=64
        ).run()
        assert analytical.prefix_hit_tokens > 0
        assert executed.prefix_hit_tokens == analytical.prefix_hit_tokens
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.sim_time_s == pytest.approx(analytical.sim_time_s)

    def test_executes_through_preemption(self, a100):
        # Tight pool: decode growth forces preemptions; a preempted victim
        # re-probes the cache on re-admission and must still execute every
        # generated token.
        trace = _trace(n=6, prompt=64, output=30, rate=5000.0)
        analytical = _engine(
            a100, trace, prefix_cache=True, n_pages=8, max_batch=4
        ).run()
        executed = _engine(
            a100, trace, execute=True, prefix_cache=True, n_pages=8, max_batch=4
        ).run()
        assert analytical.preemptions > 0
        assert executed.preemptions == analytical.preemptions
        assert executed.total_generated_tokens == analytical.total_generated_tokens
        assert executed.executed_tokens == executed.total_generated_tokens
