"""Memory-hierarchy model invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    achieved_dram_bw,
    bandwidth_utilization,
    dram_time,
    l2_time,
    smem_time,
)


class TestBandwidthRamp:
    def test_zero_warps_zero_bandwidth(self, a100):
        assert bandwidth_utilization(a100, 0) == 0.0

    def test_saturation_reaches_peak(self, a100):
        assert bandwidth_utilization(a100, a100.bw_saturation_warps) == 1.0
        assert achieved_dram_bw(a100, 10 ** 6) == a100.dram_bw_bytes_per_s

    def test_ramp_is_monotonic(self, a100):
        utils = [bandwidth_utilization(a100, w) for w in (8, 32, 128, 512, 2048)]
        assert utils == sorted(utils)

    def test_small_grids_get_a_floor(self, a100):
        assert bandwidth_utilization(a100, 1) >= 0.02

    def test_negative_warps_rejected(self, a100):
        with pytest.raises(ValueError):
            bandwidth_utilization(a100, -1)

    @given(st.integers(1, 10000))
    @settings(max_examples=30, deadline=None)
    def test_utilization_bounded(self, warps):
        from repro.gpu.arch import get_arch

        u = bandwidth_utilization(get_arch("a100"), warps)
        assert 0.0 < u <= 1.0


class TestTransferTimes:
    def test_dram_time_linear_in_bytes(self, a100):
        t1 = dram_time(a100, 1e9, 4096)
        t2 = dram_time(a100, 2e9, 4096)
        assert t2 == pytest.approx(2 * t1)

    def test_dram_time_zero_bytes_is_zero(self, a100):
        assert dram_time(a100, 0, 4096) == 0.0

    def test_dram_time_needs_warps(self, a100):
        with pytest.raises(ValueError):
            dram_time(a100, 1e9, 0)

    def test_l2_faster_than_dram(self, a100):
        assert l2_time(a100, 1e9, 1.0) < dram_time(a100, 1e9, 10 ** 6)

    def test_smem_time_scales_with_active_fraction(self, a100):
        assert smem_time(a100, 1e9, 0.5) == pytest.approx(2 * smem_time(a100, 1e9, 1.0))
