"""Memory-hierarchy model: DRAM roofline, L2, shared memory.

The central effect this module captures is that *achieved* DRAM bandwidth
depends on how many warps are in flight.  Decode-attention kernels at
``batch=1`` launch few blocks; without split-KV partitioning they cannot
cover DRAM latency and see a fraction of peak bandwidth.  This is the
mechanism behind several of the paper's observations:

- FlashDecoding's split-KV exists precisely to recover bandwidth at small
  batch (Sec. VI-A baselines);
- KIVI's non-tiled kernels underfill the machine and degrade (Fig. 10/11);
- the ``Wn=1`` warp layout of Table III both serializes dequantization and
  starves the memory system.

Shared memory is a bandwidth here.  Bank conflicts reach it as the replay
factor a kernel records on its trace (``OpTrace.smem_traffic``): the
swizzled ``ldmatrix`` path of Eq. 2 records none, the continuous-packing
baseline a fixed 4x.
"""

from __future__ import annotations

from repro.gpu.arch import ArchSpec

#: Exponent of the bandwidth-vs-occupancy ramp.  A mildly concave curve:
#: doubling in-flight warps less than doubles achieved bandwidth near
#: saturation, matching measured latency-hiding behaviour.
_BW_RAMP_EXPONENT = 0.75

#: Bandwidth floor as a fraction of peak: even a single warp streams
#: something (DRAM latency ~500ns at 128B per access).
_BW_FLOOR_FRACTION = 0.02


def bandwidth_utilization(arch: ArchSpec, inflight_warps: float) -> float:
    """Fraction of peak DRAM bandwidth achieved with ``inflight_warps``.

    Saturates at 1.0 once the machine-wide warp count reaches
    ``arch.bw_saturation_warps``; below that, follows a concave ramp with a
    small floor.
    """
    if inflight_warps < 0:
        raise ValueError("inflight_warps must be non-negative")
    if inflight_warps == 0:
        return 0.0
    frac = inflight_warps / arch.bw_saturation_warps
    util = min(1.0, frac ** _BW_RAMP_EXPONENT)
    return max(_BW_FLOOR_FRACTION, util)


def achieved_dram_bw(arch: ArchSpec, inflight_warps: float) -> float:
    """Achieved DRAM bandwidth in bytes/s for a given warp occupancy."""
    return arch.dram_bw_bytes_per_s * bandwidth_utilization(arch, inflight_warps)


def l2_bw(arch: ArchSpec, active_sm_fraction: float) -> float:
    """L2 bandwidth in bytes/s available to a launch; it scales with the
    active SMs (at least one)."""
    frac = max(min(active_sm_fraction, 1.0), 1.0 / arch.sm_count)
    return arch.l2_bw_bytes_per_s * frac


def smem_bw(arch: ArchSpec, active_sm_fraction: float) -> float:
    """Shared-memory bandwidth in bytes/s summed over the active SMs."""
    frac = max(min(active_sm_fraction, 1.0), 1.0 / arch.sm_count)
    return arch.smem_bw_bytes_per_s * frac
