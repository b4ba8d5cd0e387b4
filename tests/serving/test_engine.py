"""Continuous-batching engine: scheduling, preemption, page conservation.

All tests pin the trace seed (or hand-build traces) and, where the page
pool matters, pass an explicit ``n_pages`` so behavior is deterministic
and independent of any device's memory size.
"""

import pytest

from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.model.serving import ServingOOMError
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import Request, poisson_trace


class ConstAttention:
    """Duck-typed attention system with a fixed per-layer latency."""

    def __init__(self, ms: float = 0.01):
        self.ms = ms

    def decode_time_ms(self, geom) -> float:
        return self.ms


def make_engine(requests, n_pages, page_size=16, max_batch=384, max_steps=None, a100=None):
    model = LLAMA31_8B
    return ContinuousBatchingEngine(
        EngineConfig(
            model=model,
            arch=a100,
            fmt=int_format(4, model),
            attention=ConstAttention(),
            page_size=page_size,
            n_pages=n_pages,
            max_batch=max_batch,
            max_steps=max_steps,
        ),
        requests,
    )


class TestAdmission:
    def test_fcfs_admission_order(self, a100):
        trace = [
            Request(req_id=i, arrival_s=0.5 * i, prompt_len=32, output_len=4)
            for i in (3, 1, 0, 2)  # construction order is not arrival order
        ]
        engine = make_engine(trace, n_pages=1024, a100=a100)
        engine.run()
        admitted = sorted(engine.lifecycles, key=lambda lc: lc.admitted_s)
        assert [lc.request.req_id for lc in admitted] == [0, 1, 2, 3]
        assert all(lc.finished for lc in engine.lifecycles)

    def test_arrivals_gate_admission(self, a100):
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=32, output_len=4),
            Request(req_id=1, arrival_s=1e6, prompt_len=32, output_len=4),
        ]
        engine = make_engine(trace, n_pages=1024, a100=a100)
        engine.run()
        late = engine.lifecycles[1]
        assert late.admitted_s >= 1e6

    def test_max_batch_caps_residency(self, a100):
        trace = poisson_trace(16, 1000.0, 32, 8, seed=0)
        engine = make_engine(trace, n_pages=1024, max_batch=4, a100=a100)
        report = engine.run()
        assert report.peak_resident_batch == 4
        assert report.completed == 16

    def test_oversized_request_rejected_others_complete(self, a100):
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=16 * 64, output_len=4),
            Request(req_id=1, arrival_s=0.0, prompt_len=32, output_len=4),
        ]
        engine = make_engine(trace, n_pages=8, a100=a100)  # 128 tokens total
        report = engine.run()
        assert report.rejected == 1
        assert report.completed == 1
        assert engine.lifecycles[0].rejected
        assert engine.lifecycles[1].finished


class TestPreemption:
    def test_page_exhaustion_preempts_and_requeues(self, a100):
        # Two sequences of 32-token prompts fill all 4 pages; the first
        # decode step must evict the later arrival to grow the earlier one.
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=32, output_len=8),
            Request(req_id=1, arrival_s=0.0, prompt_len=32, output_len=8),
        ]
        engine = make_engine(trace, n_pages=4, a100=a100)
        report = engine.run()
        assert report.preemptions >= 1
        assert engine.lifecycles[1].preemptions >= 1
        assert report.completed == 2
        # Recompute-style preemption re-prefills the victim.
        assert report.prefill_steps > 2

    def test_preemption_releases_pages(self, a100):
        trace = poisson_trace(8, 1000.0, 48, 16, seed=1)
        engine = make_engine(trace, n_pages=7, a100=a100)
        report = engine.run()
        assert report.preemptions >= 1
        assert engine.allocator.used_pages == 0
        assert engine.allocator.free_pages == engine.n_pages
        # Re-admissions recycle sequence ids: the table stays bounded by
        # peak concurrency, not total (admissions + preemption retries).
        assert len(engine.table.sequences) <= report.peak_resident_batch

    def test_single_oversized_total_context_rejected_not_livelocked(self, a100):
        # Prompt fits the pool but prompt+output cannot: the engine must
        # reject at admission rather than preempt-thrash forever.
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=60, output_len=16)]
        engine = make_engine(trace, n_pages=4, a100=a100)  # 64-token pool
        report = engine.run()
        assert report.rejected == 1
        assert report.completed == 0
        assert engine.allocator.used_pages == 0


class TestConservation:
    def test_no_kv_leaks_after_completion(self, a100):
        trace = poisson_trace(24, 500.0, 40, 12, seed=2, prompt_jitter=0.5, output_jitter=0.5)
        engine = make_engine(trace, n_pages=16, a100=a100)
        report = engine.run()
        assert report.completed + report.rejected == 24
        assert engine.allocator.used_pages == 0
        generated = sum(lc.generated for lc in engine.lifecycles if lc.finished)
        assert generated == sum(
            lc.request.output_len for lc in engine.lifecycles if lc.finished
        )

    def test_token_accounting(self, a100):
        trace = poisson_trace(6, 100.0, 32, 10, seed=0)
        engine = make_engine(trace, n_pages=64, a100=a100)
        report = engine.run()
        assert report.total_generated_tokens == 6 * 10
        assert report.completed == 6
        assert report.p50_latency_s is not None
        assert report.p99_latency_s >= report.p50_latency_s


class TestStepCapAndClock:
    def test_max_steps_stops_early(self, a100):
        trace = poisson_trace(8, 100.0, 32, 1000, seed=0)
        engine = make_engine(trace, n_pages=1024, max_steps=5, a100=a100)
        report = engine.run()
        assert report.decode_steps <= 5
        assert report.completed == 0
        assert report.sim_time_s > 0

    def test_clock_jumps_to_next_arrival_when_idle(self, a100):
        trace = [Request(req_id=0, arrival_s=123.0, prompt_len=32, output_len=2)]
        engine = make_engine(trace, n_pages=64, a100=a100)
        report = engine.run()
        assert engine.lifecycles[0].admitted_s == 123.0
        assert report.sim_time_s > 123.0

    def test_latency_counts_queueing(self, a100):
        # Burst of arrivals at t=0 through a tiny batch slot: later
        # requests wait, so their e2e latency exceeds the first one's.
        trace = [
            Request(req_id=i, arrival_s=0.0, prompt_len=32, output_len=4)
            for i in range(4)
        ]
        engine = make_engine(trace, n_pages=1024, max_batch=1, a100=a100)
        engine.run()
        finishes = [lc.finish_s for lc in engine.lifecycles]
        assert finishes == sorted(finishes)
        assert finishes[-1] > finishes[0]


class TestConfigValidation:
    def test_zero_page_pool_raises(self, a100):
        with pytest.raises(ServingOOMError):
            make_engine(poisson_trace(2, 1.0, 8, 2), n_pages=0, a100=a100)

    def test_bad_page_size_raises(self, a100):
        with pytest.raises(ValueError):
            EngineConfig(
                model=LLAMA31_8B,
                arch=a100,
                fmt=int_format(4, LLAMA31_8B),
                attention=ConstAttention(),
                page_size=0,
            )

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_non_positive_step_cap_raises(self, a100, max_steps):
        """A cap below one step used to run nothing and report all zeros."""
        with pytest.raises(ValueError, match="max_steps must be positive"):
            make_engine(poisson_trace(2, 1.0, 8, 2), n_pages=64, max_steps=max_steps, a100=a100)
