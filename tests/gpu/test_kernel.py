"""Kernel time-model invariants."""

import numpy as np
import pytest

from repro.gpu.kernel import KernelLaunch, ResourceRates, _resource_times, simulate_kernel
from repro.gpu.sm import Occupancy
from repro.gpu.trace import OpTrace


def _mem_launch(nbytes, grid=1024, hide=1.0, path="sm80", launches=1):
    t = OpTrace()
    t.gmem_read(nbytes)
    return KernelLaunch(
        name="mem", trace=t, grid_blocks=grid, warps_per_block=4,
        smem_per_block_bytes=16 * 1024, hide_factor=hide,
        instruction_path=path, launches=launches,
    )


class TestValidation:
    def test_hide_factor_bounds(self):
        with pytest.raises(ValueError):
            _mem_launch(1e6, hide=1.5)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            _mem_launch(1e6, path="sm70")

    def test_sm90_path_requires_wgmma(self, a100, h100):
        launch = _mem_launch(1e6, path="sm90")
        with pytest.raises(ValueError, match="wgmma"):
            simulate_kernel(a100, launch)
        assert simulate_kernel(h100, launch).time_s > 0

    def test_fp4_path_requires_blackwell(self, h100, rtx5090):
        launch = _mem_launch(1e6, path="blackwell_fp4")
        with pytest.raises(ValueError, match="FP4"):
            simulate_kernel(h100, launch)
        assert simulate_kernel(rtx5090, launch).time_s > 0


class TestTimeModel:
    def test_memory_bound_kernel_hits_roofline(self, a100):
        res = simulate_kernel(a100, _mem_launch(2e9))
        ideal = 2e9 / a100.dram_bw_bytes_per_s
        assert res.exec_time_s == pytest.approx(ideal, rel=0.05)
        assert res.bound_by == "dram"

    def test_launch_overhead_counted(self, a100):
        one = simulate_kernel(a100, _mem_launch(1e6, launches=1))
        five = simulate_kernel(a100, _mem_launch(1e6, launches=5))
        delta = five.launch_time_s - one.launch_time_s
        assert delta == pytest.approx(4 * a100.kernel_launch_us * 1e-6)

    def test_more_bytes_more_time(self, any_arch):
        t1 = simulate_kernel(any_arch, _mem_launch(1e8)).time_s
        t2 = simulate_kernel(any_arch, _mem_launch(4e8)).time_s
        assert t2 > t1

    def test_hide_factor_zero_serializes(self, a100):
        t = OpTrace()
        t.gmem_read(1e9)
        t.tensor_core(1e11)
        overlapped = KernelLaunch(
            name="k", trace=t, grid_blocks=1024, warps_per_block=4, hide_factor=1.0
        )
        serial = KernelLaunch(
            name="k", trace=t, grid_blocks=1024, warps_per_block=4, hide_factor=0.0
        )
        t_overlap = simulate_kernel(a100, overlapped).exec_time_s
        t_serial = simulate_kernel(a100, serial).exec_time_s
        assert t_serial > t_overlap
        times = simulate_kernel(a100, serial).resource_times
        assert t_serial == pytest.approx(sum(times.values()), rel=1e-6)

    def test_full_hide_is_bounded_by_busiest_resource(self, a100):
        t = OpTrace()
        t.gmem_read(1e9)
        t.tensor_core(1e11)
        res = simulate_kernel(
            a100, KernelLaunch(name="k", trace=t, grid_blocks=1024, warps_per_block=4)
        )
        assert res.exec_time_s == pytest.approx(max(res.resource_times.values()), rel=1e-9)
        assert res.bound_by == max(res.resource_times, key=res.resource_times.get)

    def test_partial_hide_exposes_that_share_of_the_rest(self, a100):
        t = OpTrace()
        t.gmem_read(1e9)
        t.tensor_core(1e11)
        launch = KernelLaunch(
            name="k", trace=t, grid_blocks=1024, warps_per_block=4, hide_factor=0.25
        )
        res = simulate_kernel(a100, launch)
        times = res.resource_times.values()
        expected = max(times) + 0.75 * (sum(times) - max(times))
        assert res.exec_time_s == pytest.approx(expected, rel=1e-9)

    def test_empty_trace_costs_only_the_launch(self, a100):
        launch = KernelLaunch(name="k", trace=OpTrace(), grid_blocks=1, warps_per_block=4)
        res = simulate_kernel(a100, launch)
        assert res.exec_time_s == 0.0
        assert res.time_s == pytest.approx(res.launch_time_s)

    def test_legacy_path_slower_on_hopper_only(self, a100, h100):
        launch = _mem_launch(1e9)
        a_legacy = simulate_kernel(a100, launch).exec_time_s
        h_legacy = simulate_kernel(h100, launch).exec_time_s
        h_native = simulate_kernel(h100, _mem_launch(1e9, path="sm90")).exec_time_s
        assert h_legacy == pytest.approx(h_native / h100.legacy_path_efficiency, rel=1e-6)
        # A100 is the sm80 native home: no penalty anywhere.
        ideal = 1e9 / a100.dram_bw_bytes_per_s
        assert a_legacy == pytest.approx(ideal, rel=0.05)

    def test_small_grid_underutilizes_bandwidth(self, a100):
        small = simulate_kernel(a100, _mem_launch(1e9, grid=8)).exec_time_s
        large = simulate_kernel(a100, _mem_launch(1e9, grid=4096)).exec_time_s
        assert small > 2 * large

    def test_barriers_add_time(self, a100):
        t = OpTrace()
        t.gmem_read(1e6)
        t.barriers_per_block = 1000
        with_barriers = KernelLaunch(
            name="k", trace=t, grid_blocks=128, warps_per_block=4
        )
        t2 = OpTrace()
        t2.gmem_read(1e6)
        without = KernelLaunch(name="k", trace=t2, grid_blocks=128, warps_per_block=4)
        assert (
            simulate_kernel(a100, with_barriers).time_s
            > simulate_kernel(a100, without).time_s
        )

    def test_subtrace_times_reported(self, a100):
        t = OpTrace()
        t.gmem_read(1e9)
        sub = OpTrace()
        sub.alu_ops = 1e9
        t.merge(sub)
        launch = KernelLaunch(
            name="k", trace=t, grid_blocks=1024, warps_per_block=4,
            subtraces={"dequant": sub},
        )
        res = simulate_kernel(a100, launch)
        assert 0 < res.subtrace_times["dequant"] < res.time_s


class TestComposition:
    def test_time_unit_conversions(self, a100):
        res = simulate_kernel(a100, _mem_launch(1e9))
        assert res.time_ms == pytest.approx(res.time_s * 1e3)


class TestArrayCounts:
    """``_resource_times`` over a trace whose counts are arrays (one
    launch per element, as ``PackingShape.class_times_ms`` prices a tile
    class) equals the scalar call on each element's trace, key by key and
    bit for bit: zero counts included, and a precision the device lacks
    costs nothing while it has no work."""

    FIELDS = (
        "gmem_read_bytes_effective", "gmem_write_bytes_effective", "l2_bytes",
        "smem_bytes_effective", "fma_flops", "alu_ops", "shfl_ops", "cvt_ops", "sfu_ops",
    )

    @staticmethod
    def _bits(values) -> np.ndarray:
        return np.asarray(values, np.float64).view(np.uint64)

    def _pair(self, n: int, zero_gmem: bool = False):
        rng = np.random.default_rng(n)
        counts = {name: rng.uniform(0.0, 1e9, n) for name in self.FIELDS}
        for column in counts.values():
            column[::3] = 0.0
        if zero_gmem:
            counts["gmem_read_bytes_effective"][:] = counts["gmem_write_bytes_effective"][:] = 0.0
        # A100 has no FP8 tensor cores: an all-zero FP8 count must not ask.
        tc = {"fp16": rng.uniform(0.0, 1e12, n), "fp8": np.zeros(n)}
        tc["fp16"][1] = 0.0
        array = OpTrace(**counts, tc_flops=tc)
        scalars = [
            OpTrace(
                **{name: float(column[i]) for name, column in counts.items()},
                tc_flops={p: float(column[i]) for p, column in tc.items()},
            )
            for i in range(n)
        ]
        return array, scalars

    @pytest.mark.parametrize("warps", [4096, 7])
    def test_each_element_equals_its_scalar_call(self, a100, warps):
        occ = Occupancy(1, a100.sm_count, warps, 1, a100.sm_count)
        rates = ResourceRates(a100, occ)
        array, scalars = self._pair(9)
        times = _resource_times(array, rates)
        per_launch = [_resource_times(trace, rates) for trace in scalars]
        assert list(times) == list(per_launch[0])
        for key, column in times.items():
            expected = [t[key] for t in per_launch]
            assert np.array_equal(self._bits(np.broadcast_to(column, 9)), self._bits(expected)), key
        assert all(t["dram"] == 0.0 for t in per_launch[::3])

    def test_zero_warps_raise_only_with_bytes_to_move(self, a100):
        rates = ResourceRates(a100, Occupancy(1, a100.sm_count, 0, 1, a100.sm_count))
        array, scalars = self._pair(6)
        with pytest.raises(ValueError, match="zero in-flight warps"):
            _resource_times(array, rates)
        with pytest.raises(ValueError, match="zero in-flight warps"):
            _resource_times(scalars[1], rates)
        idle, idle_scalars = self._pair(6, zero_gmem=True)
        times = _resource_times(idle, rates)
        assert times["dram"] == 0.0
        for key, column in times.items():
            expected = [_resource_times(trace, rates)[key] for trace in idle_scalars]
            assert np.array_equal(self._bits(np.broadcast_to(column, 6)), self._bits(expected)), key
