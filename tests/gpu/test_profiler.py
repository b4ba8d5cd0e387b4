"""Profiler metric invariants."""

import dataclasses

import pytest

from repro.gpu.kernel import KernelLaunch, simulate_kernel
from repro.gpu.profiler import dequant_overhead_fraction, profile_kernel
from repro.gpu.trace import OpTrace


def _launch(read=1e9, tc=0.0, alu=0.0, hide=1.0, subtraces=None):
    t = OpTrace()
    t.gmem_read(read)
    if tc:
        t.tensor_core(tc)
    t.alu_ops = alu
    return KernelLaunch(
        name="k", trace=t, grid_blocks=2048, warps_per_block=4,
        hide_factor=hide, subtraces=subtraces or {},
    )


class TestMetrics:
    def test_memory_bound_kernel_shows_high_memory_throughput(self, a100):
        prof = profile_kernel(simulate_kernel(a100, _launch()))
        assert prof.memory_throughput_pct > 90

    def test_percentages_bounded(self, a100):
        prof = profile_kernel(simulate_kernel(a100, _launch(tc=1e12, alu=1e9)))
        for key, value in dataclasses.asdict(prof).items():
            assert key == "name" or 0 <= value <= 100 or value == prof.time_ms

    def test_tc_util_rises_with_tc_work(self, a100):
        low = profile_kernel(simulate_kernel(a100, _launch(tc=1e10)))
        high = profile_kernel(simulate_kernel(a100, _launch(tc=1e12)))
        assert high.tensor_core_util_pct > low.tensor_core_util_pct

    def test_serialization_stall_zero_when_pipelined(self, a100):
        prof = profile_kernel(simulate_kernel(a100, _launch(tc=1e11, hide=1.0)))
        assert prof.serialization_stall_pct == pytest.approx(0.0, abs=0.5)

    def test_serialization_stall_grows_without_overlap(self, a100):
        on = profile_kernel(simulate_kernel(a100, _launch(tc=1e12, alu=1e10, hide=1.0)))
        off = profile_kernel(simulate_kernel(a100, _launch(tc=1e12, alu=1e10, hide=0.0)))
        assert off.serialization_stall_pct > on.serialization_stall_pct


class TestDequantFraction:
    def test_no_subtrace_gives_zero(self, a100):
        res = simulate_kernel(a100, _launch())
        assert dequant_overhead_fraction(res) == 0.0

    def test_fraction_bounded_and_positive(self, a100):
        sub = OpTrace()
        sub.alu_ops = 5e9
        launch = _launch(alu=5e9, subtraces={"dequant": sub})
        res = simulate_kernel(a100, launch)
        frac = dequant_overhead_fraction(res)
        assert 0 < frac <= 1
