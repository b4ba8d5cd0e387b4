"""Nsight-Compute-style profiling metrics over simulated kernels.

The paper supports its design with profiler evidence (Fig. 4b, Fig. 15,
Table III): Tensor-Core utilization, achieved memory throughput, FMA/ALU
pipe pressure, and memory-stall fractions.  This module derives the same
metrics from a :class:`~repro.gpu.kernel.KernelResult`.

Definitions (all percentages of kernel execution time):

- ``memory_throughput_pct`` — DRAM busy time / exec time: how close the
  kernel runs to the memory roofline.
- ``tensor_core_util_pct`` — Tensor-Core busy time / exec time.
- ``fma_pct`` / ``alu_pct`` / ``cvt_pct`` / ``sfu_pct`` — CUDA-core pipe
  pressure.
- ``memory_stall_pct`` — fraction of exec time no compute pipe is busy
  (exposed memory latency).
- ``compute_throughput_pct`` — busiest compute pipe / exec time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.kernel import KernelResult


@dataclass(frozen=True)
class KernelProfile:
    """Profiler view of one simulated kernel."""

    name: str
    time_ms: float
    memory_throughput_pct: float
    tensor_core_util_pct: float
    fma_pct: float
    alu_pct: float
    cvt_pct: float
    sfu_pct: float
    smem_pct: float
    memory_stall_pct: float
    compute_throughput_pct: float
    #: Fraction of exec time beyond the bottleneck resource's busy time —
    #: exposure from serialized phases (warps waiting with nothing issued).
    serialization_stall_pct: float = 0.0


def _pct(part: float, whole: float) -> float:
    if whole <= 0:
        return 0.0
    return min(100.0, 100.0 * part / whole)


def profile_kernel(result: KernelResult) -> KernelProfile:
    """Derive utilization metrics from a simulated kernel result."""
    exec_time = result.exec_time_s
    times = result.resource_times
    get = lambda key: times.get(key, 0.0)  # noqa: E731 - tiny local accessor

    compute_times = [get("tensor_core"), get("fma"), get("alu"), get("cvt"), get("sfu")]
    busiest_compute = max(compute_times) if compute_times else 0.0
    # Exposed memory time: DRAM busy time not covered by any compute pipe.
    exposed = max(0.0, get("dram") - busiest_compute)
    bottleneck = max(times.values()) if times else 0.0
    serialization = max(0.0, exec_time - bottleneck)

    return KernelProfile(
        name=result.name,
        time_ms=result.time_ms,
        memory_throughput_pct=_pct(get("dram"), exec_time),
        tensor_core_util_pct=_pct(get("tensor_core"), exec_time),
        fma_pct=_pct(get("fma"), exec_time),
        alu_pct=_pct(get("alu"), exec_time),
        cvt_pct=_pct(get("cvt"), exec_time),
        sfu_pct=_pct(get("sfu"), exec_time),
        smem_pct=_pct(get("smem"), exec_time),
        memory_stall_pct=_pct(exposed, exec_time),
        compute_throughput_pct=_pct(busiest_compute, exec_time),
        serialization_stall_pct=_pct(serialization, exec_time),
    )


def dequant_overhead_fraction(result: KernelResult) -> float:
    """Fraction of kernel time attributable to dequantization.

    Requires the kernel to have registered a ``"dequant"`` subtrace.
    Matches the Fig. 15a methodology: standalone dequant time over total
    kernel time (overlap means the fractions of all subtraces need not sum
    to one).
    """
    if "dequant" not in result.subtrace_times:
        return 0.0
    if result.time_s <= 0:
        return 0.0
    return min(1.0, result.subtrace_times["dequant"] / result.time_s)
