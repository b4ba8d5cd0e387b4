"""``KernelResult.subtrace_times`` is computed on first read, not by
``simulate_kernel``.

Step pricing reads only ``time_s``; the profiler's dequant fraction and the
Fig. 4b/15 builders read the subtrace times.  Whenever they are read they
must equal what the eager pass computed inside ``simulate_kernel``:
``_eager_subtrace_times`` below is that pass, kept verbatim.
"""

import pytest

import repro.gpu.kernel as kernel
from repro.baselines import Atom, QServe
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import build_packing_launch
from repro.core.residual_kernel import build_residual_launch
from repro.gpu.arch import GPU_REGISTRY, get_arch
from repro.gpu.profiler import dequant_overhead_fraction
from repro.gpu.sm import occupancy

MHA = AttentionGeometry(8, 32, 32, 4096, 128)  # Fig. 15
GQA = AttentionGeometry(8, 32, 8, 8192, 128)  # Fig. 4b
FIG4_CONFIG = BitDecodingConfig(bits=4, use_warp_parallel=False, use_pipeline=False)


def _bd_launches(bits, granularity):
    def launches(arch):
        engine = BitDecoding(BitDecodingConfig(bits=bits, granularity=granularity), arch)
        return engine.decode_launches(MHA, flush=True)

    return launches


def _fig4_stripped(arch):
    launch = build_packing_launch(GQA, FIG4_CONFIG, arch)
    launch.trace = launch.trace.without(launch.subtraces["dequant"])
    launch.subtraces = {}
    return [launch]


#: The launches the profiler and the Fig. 4b/15 builders simulate, by series.
SYSTEMS = {
    "Atom": lambda arch: [Atom(arch, 4).build_launch(MHA)],
    "Qserve": lambda arch: [QServe(arch, 4).build_launch(MHA, paged=False)],
    "B-KT-4": _bd_launches(4, "tensor"),
    "B-KC-4": _bd_launches(4, "channel"),
    "B-KC-2": _bd_launches(2, "channel"),
    "W/ Dequant": lambda arch: [build_packing_launch(GQA, FIG4_CONFIG, arch)],
    "W/O Dequant": _fig4_stripped,
    "residual flush": lambda arch: [
        build_residual_launch(MHA, BitDecodingConfig(bits=4), arch, flush=True)
    ],
}


def _eager_subtrace_times(arch, launch):
    occ = occupancy(
        arch,
        launch.grid_blocks,
        launch.warps_per_block,
        launch.smem_per_block_bytes,
        launch.regs_per_thread,
    )
    hide, path_eff = launch.hide_factor, kernel._path_efficiency(arch, launch.instruction_path)
    rates = kernel.ResourceRates(arch, occ)
    return {
        tag: kernel._combine(kernel._resource_times(sub, rates), hide) / path_eff
        for tag, sub in launch.subtraces.items()
    }


@pytest.mark.parametrize("arch_name", sorted(GPU_REGISTRY))
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_lazy_subtrace_times_equal_the_eager_pass(system, arch_name):
    arch = get_arch(arch_name)
    for launch in SYSTEMS[system](arch):
        result = kernel.simulate_kernel(arch, launch)
        assert "subtrace_times" not in vars(result)  # nothing computed yet
        eager = _eager_subtrace_times(arch, launch)
        assert result.subtrace_times == eager
        assert result.subtrace_times is result.subtrace_times  # computed once
        if "dequant" in eager:
            assert dequant_overhead_fraction(result) == min(1.0, eager["dequant"] / result.time_s)
        else:
            assert dequant_overhead_fraction(result) == 0.0


def test_editing_the_launch_after_simulation_changes_nothing(rtx4090):
    launch = build_packing_launch(GQA, FIG4_CONFIG, rtx4090)
    eager = _eager_subtrace_times(rtx4090, launch)
    result = kernel.simulate_kernel(rtx4090, launch)
    launch.subtraces["dequant"] = launch.trace
    launch.hide_factor = 0.0
    assert result.subtrace_times == eager
    launch.subtraces = {}
    assert kernel.simulate_kernel(rtx4090, launch).subtrace_times == {}
