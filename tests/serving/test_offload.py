"""Swap-based preemption: tiered offload executed end to end.

The parity contract: a swap run's decode outputs are bit-identical to a
*never-swapped* run over the same total page budget — demotion and
promotion move packed pages without touching a bit.  (Recompute replay
is bit-exact too — the runner re-decodes consumed inputs through the
quantized cache — but swap runs are the cleaner reference because their
schedule never re-prefills at all.)
"""

import pytest

from repro.model.config import TINY
from repro.model.memory import MemoryTierModel
from repro.serving import ContinuousBatchingEngine, poisson_trace
from repro.serving.crosscheck import decoded_bit_exact, int4_stack, schedules_match

#: Near-simultaneous arrivals whose aggregate context (8 requests x 4
#: pages) far exceeds the 8-page device tier — admission must succeed
#: through the host tier and decode must proceed by swapping.
DEVICE, HOST = 8, 28


def _trace():
    return poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)


def _config(a100, execute=True, **overrides):
    kwargs = dict(max_batch=16, max_steps=2000)
    kwargs.update(overrides)
    return int4_stack(TINY, a100).config(execute, **kwargs)


def _swap_config(a100, execute=True, **overrides):
    kwargs = dict(preemption="swap", device_pages=DEVICE, host_pages=HOST)
    kwargs.update(overrides)
    return _config(a100, execute=execute, **kwargs)


class TestSwapExecution:
    def test_over_capacity_trace_completes_by_swapping(self, a100):
        engine = ContinuousBatchingEngine(_swap_config(a100), _trace())
        report = engine.run()
        assert report.completed == 8 and report.rejected == 0
        assert report.preemptions == 0  # pressure was paid in swaps
        assert report.swap_outs > 0
        assert report.swap_ins == report.swap_outs
        assert report.executed_tokens == report.total_generated_tokens == 8 * 60
        assert report.offload_d2h_bytes > 0 and report.offload_h2d_bytes > 0
        assert report.preemption == "swap"
        assert report.device_pages == DEVICE and report.host_pages == HOST
        assert report.n_pages == DEVICE + HOST

    def test_swapped_decode_bit_identical_to_never_swapped(self, a100):
        swap = ContinuousBatchingEngine(_swap_config(a100), _trace())
        swap_report = swap.run()
        assert swap_report.swap_outs > 0
        baseline = ContinuousBatchingEngine(_config(a100, n_pages=DEVICE + HOST), _trace())
        baseline_report = baseline.run()
        assert baseline_report.preemptions == 0  # truly unpressured
        assert decoded_bit_exact(swap.decoded, baseline.decoded)

    def test_swap_beats_recompute_at_equal_device_budget(self, a100):
        swap = ContinuousBatchingEngine(_swap_config(a100), _trace()).run()
        recompute = ContinuousBatchingEngine(_config(a100, n_pages=DEVICE), _trace()).run()
        assert recompute.preemptions > 0
        assert swap.total_generated_tokens == recompute.total_generated_tokens
        assert swap.sustained_tokens_per_s > recompute.sustained_tokens_per_s

    def test_executed_schedule_matches_analytical(self, a100):
        executed = ContinuousBatchingEngine(_swap_config(a100), _trace()).run()
        analytical = ContinuousBatchingEngine(_swap_config(a100, execute=False), _trace()).run()
        assert analytical.executed_tokens is None
        assert executed.swap_outs > 0
        assert schedules_match(analytical, executed)

    def test_faults_and_stall_are_priced(self, a100):
        report = ContinuousBatchingEngine(_swap_config(a100), _trace()).run()
        pcie_only = ContinuousBatchingEngine(_config(a100, n_pages=DEVICE + HOST), _trace()).run()
        # Tier traffic costs real simulated time on top of the compute.
        assert report.sim_time_s > pcie_only.sim_time_s
        assert report.offload_stall_s >= 0.0
        assert report.offload_overlapped_s > 0.0

    def test_slower_tier_model_costs_more_time(self, a100):
        fast = ContinuousBatchingEngine(_swap_config(a100), _trace()).run()
        slow = ContinuousBatchingEngine(
            _swap_config(a100, tier_model=MemoryTierModel(pcie_gbs=0.001)), _trace()
        ).run()
        assert slow.sim_time_s > fast.sim_time_s

    def test_request_larger_than_device_tier_rejected(self, a100):
        too_long = DEVICE * int4_stack(TINY, a100).nr + 40
        trace = poisson_trace(1, 10.0, prompt_len=too_long, output_len=4, seed=0)
        report = ContinuousBatchingEngine(_swap_config(a100, host_pages=64), trace).run()
        assert report.rejected == 1 and report.completed == 0


class TestSwapConfigValidation:
    def test_swap_needs_tier_sizes(self, a100):
        with pytest.raises(ValueError, match="device_pages"):
            _config(a100, preemption="swap", host_pages=8)
        with pytest.raises(ValueError, match="host_pages"):
            _config(a100, preemption="swap", device_pages=8)

    def test_swap_derives_the_pool(self, a100):
        with pytest.raises(ValueError, match="derived"):
            _swap_config(a100, n_pages=64)

    def test_recompute_forbids_tier_geometry(self, a100):
        with pytest.raises(ValueError, match='preemption="swap"'):
            _config(a100, n_pages=16, device_pages=8)
        with pytest.raises(ValueError, match='preemption="swap"'):
            _config(a100, n_pages=16, tier_model=MemoryTierModel())

    def test_unknown_preemption_rejected(self, a100):
        with pytest.raises(ValueError, match="preemption"):
            _config(a100, n_pages=16, preemption="migrate")

    def test_recompute_report_shows_whole_pool_as_device(self, a100):
        report = ContinuousBatchingEngine(_config(a100, n_pages=DEVICE + HOST), _trace()).run()
        assert report.preemption == "recompute"
        assert report.device_pages == report.n_pages
        assert report.swap_outs == 0 and report.offload_h2d_bytes == 0
