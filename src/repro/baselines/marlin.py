"""Marlin repack cost model (Table II).

Marlin (Frantar et al., 2024) is a weight-only mpGEMM kernel: it expects
its low-bit operand in a bespoke interleaved layout produced by an
*offline* repacking utility.  Applying it to a KV cache means running that
pre-transform on data that changes every step.  Marlin's packer is a
host-side utility: tensors round-trip over PCIe, get permuted on the CPU,
and return — fine offline, prohibitive online (58 ms for a 128K-context
cache; 0.41 ms *per decoded token*).

This module models that mechanism: PCIe transfers both ways, a host-side
permutation pass, and fixed transfer/launch latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec

#: Effective host<->device bandwidth (PCIe 4.0 x16, one direction).
_PCIE_BW_GBS = 17.5
#: Host-side permutation throughput (single-threaded numpy-style repack).
_HOST_PERMUTE_GBS = 40.0
#: Fixed host<->device round-trip latency (sync + transfer setup).
_PCIE_ROUND_TRIP_MS = 0.12


@dataclass
class MarlinRepack:
    """Cost of (re)packing a KV cache into Marlin's weight layout."""

    arch: ArchSpec
    bits: int = 4

    def prefill_latency_ms(self, geom: AttentionGeometry) -> float:
        """Repack an entire prefilled cache (offline-style pre-transform)."""
        fp16_bytes = geom.kv_bytes_fp16
        packed_bytes = geom.kv_elements * self.bits / 8.0
        down = fp16_bytes / (_PCIE_BW_GBS * 1e9)
        permute = fp16_bytes / (_HOST_PERMUTE_GBS * 1e9)
        up = packed_bytes / (_PCIE_BW_GBS * 1e9)
        return (down + permute + up) * 1e3 + _PCIE_ROUND_TRIP_MS

    def decode_latency_ms(self, geom: AttentionGeometry) -> float:
        """Per-token cost: the new block round-trips the host each step."""
        block_bytes = 2.0 * geom.batch * geom.hkv * 128 * geom.head_dim * 2.0
        transfer = 2.0 * block_bytes / (_PCIE_BW_GBS * 1e9)
        permute = block_bytes / (_HOST_PERMUTE_GBS * 1e9)
        return (transfer + permute) * 1e3 + 2.0 * _PCIE_ROUND_TRIP_MS
