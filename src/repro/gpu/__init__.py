"""GPU performance-model substrate for the BitDecoding reproduction.

The paper evaluates CUDA kernels on physical Blackwell / Hopper / Ada /
Ampere GPUs.  This package substitutes those GPUs with an analytical,
trace-driven performance model:

- :mod:`repro.gpu.arch` — per-architecture specifications (SM count,
  clocks, DRAM/L2/SMEM bandwidth, Tensor-Core and CUDA-core throughput,
  feature flags such as ``cp.async``, TMA, ``wgmma`` and native FP4).
- :mod:`repro.gpu.instructions` — instruction classes and per-architecture
  issue costs (``mma``, ``wgmma``, ``ldmatrix``, ``lop3``, ``cvt``,
  ``shfl``, SFU ``exp`` and friends).
- :mod:`repro.gpu.trace` — ``OpTrace``: the counts a kernel implementation
  emits while it walks its tile/warp structure.
- :mod:`repro.gpu.memory` — DRAM roofline with occupancy-dependent
  efficiency, L2 and shared-memory bandwidth (bank conflicts arrive as the
  trace's replay factor).
- :mod:`repro.gpu.warp` / :mod:`repro.gpu.sm` — warp-scheduler
  latency-hiding and SM occupancy models.
- :mod:`repro.gpu.kernel` — turns a trace plus a launch configuration and a
  pipeline descriptor into kernel time.
- :mod:`repro.gpu.profiler` — Nsight-Compute-style utilization metrics.

Kernels in :mod:`repro.core` and :mod:`repro.baselines` do their numerics in
numpy and emit :class:`~repro.gpu.trace.OpTrace` objects; this package turns
those traces into time and utilization figures.
"""

from repro.gpu.arch import (
    ArchSpec,
    GPU_REGISTRY,
    get_arch,
    A100,
    RTX4090,
    H100,
    RTX5090,
    RTX_PRO_6000,
)
from repro.gpu.trace import OpTrace, AccessPattern
from repro.gpu.kernel import KernelLaunch, KernelResult, simulate_kernel
from repro.gpu.profiler import KernelProfile, profile_kernel

__all__ = [
    "ArchSpec",
    "GPU_REGISTRY",
    "get_arch",
    "A100",
    "RTX4090",
    "H100",
    "RTX5090",
    "RTX_PRO_6000",
    "OpTrace",
    "AccessPattern",
    "KernelLaunch",
    "KernelResult",
    "simulate_kernel",
    "KernelProfile",
    "profile_kernel",
]
