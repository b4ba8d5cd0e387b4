"""Memory-hierarchy model invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.kernel import ResourceRates, _resource_times
from repro.gpu.memory import achieved_dram_bw, bandwidth_utilization, l2_bw, smem_bw
from repro.gpu.sm import Occupancy
from repro.gpu.trace import OpTrace


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
    """Transfer times are bytes over the rates of
    :class:`~repro.gpu.kernel.ResourceRates` at the launch's occupancy."""

    @staticmethod
    def _times(arch, warps, active_frac=1.0, dram=0.0, l2=0.0, smem=0.0):
        occ = Occupancy(1, round(active_frac * arch.sm_count), warps, 1, arch.sm_count)
        trace = OpTrace()
        trace.gmem_read(dram)
        trace.l2_read(l2)
        trace.smem_traffic(smem)
        return _resource_times(trace, ResourceRates(arch, occ))

    def test_dram_time_linear_in_bytes(self, a100):
        t1 = self._times(a100, 4096, dram=1e9)["dram"]
        t2 = self._times(a100, 4096, dram=2e9)["dram"]
        assert t2 == pytest.approx(2 * t1)
        assert t1 == 1e9 / achieved_dram_bw(a100, 4096)

    def test_dram_time_zero_bytes_is_zero(self, a100):
        assert self._times(a100, 4096)["dram"] == 0.0

    def test_dram_time_needs_warps(self, a100):
        with pytest.raises(ValueError, match="zero in-flight warps"):
            self._times(a100, 0, dram=1e9)

    def test_l2_faster_than_dram(self, a100):
        times = self._times(a100, 10 ** 6, dram=1e9, l2=1e9)
        assert times["l2"] < times["dram"]
        assert l2_bw(a100, 1.0) > achieved_dram_bw(a100, 10 ** 6)

    def test_smem_time_scales_with_active_fraction(self, a100):
        half = self._times(a100, 4096, active_frac=0.5, smem=1e9)["smem"]
        assert half == pytest.approx(2 * self._times(a100, 4096, smem=1e9)["smem"])
        assert smem_bw(a100, 0.5) == pytest.approx(smem_bw(a100, 1.0) / 2)

    def test_bandwidths_floor_at_one_sm(self, a100):
        one_sm = 1.0 / a100.sm_count
        assert l2_bw(a100, 0.0) == l2_bw(a100, one_sm)
        assert smem_bw(a100, 2.0) == smem_bw(a100, 1.0)
