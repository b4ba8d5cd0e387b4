"""QServe baseline: fused low-bit attention on CUDA cores only.

QServe (Lin et al., 2024) fuses dequantization directly into a
FlashAttention-style kernel, but performs the matrix work as FMA-based
GEMV on CUDA cores — no Tensor-Core MMAs (Sec. II, Fig. 2).  Consequences
the paper measures:

- dequantization, scaling and the GEMV all compete for the same pipes, so
  nearly half the kernel time is dequant overhead (Fig. 15a);
- on GQA models the arithmetic intensity rises by ``g_q`` while the
  available FLOPs stay at CUDA-core level, so speedups collapse (4090:
  3.5x MHA -> 1.4x GQA, Fig. 10) — and on the A100, whose CUDA-core peak
  is lowest relative to its bandwidth, QServe lands *below* the FP16
  Tensor-Core baseline (Fig. 11);
- it supports paged caches (its native serving mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import (
    CUDA_GEMV_EFFICIENCY,
    gqa_reread_traffic,
    int_kv_metadata_bytes,
)
from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import dequant_ops, softmax_ops
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, simulate_kernel
from repro.gpu.sm import occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import memory_hide_factor

_QSERVE_WARPS = 4


@dataclass
class QServe:
    """Fused CUDA-core-only low-bit decode attention (W4A8KV4's KV path)."""

    arch: ArchSpec
    bits: int = 4
    group_size: int = 64

    @property
    def name(self) -> str:
        return "QServe"

    # ------------------------------------------------------------------ perf

    def build_launch(self, geom: AttentionGeometry, paged: bool = True) -> KernelLaunch:
        d = geom.head_dim
        packed_bytes = geom.kv_elements * self.bits / 8.0
        meta_bytes = int_kv_metadata_bytes(geom, self.group_size)
        dram_kv, l2_kv = gqa_reread_traffic(self.arch, geom, packed_bytes + meta_bytes)

        trace = OpTrace()
        pattern = AccessPattern.STRIDED if paged else AccessPattern.COALESCED
        trace.gmem_read(dram_kv, pattern)
        trace.l2_read(l2_kv)
        trace.gmem_read(geom.batch * geom.hq * geom.q_len * d * 2.0)
        trace.gmem_write(geom.batch * geom.hq * geom.q_len * d * 2.0)
        if paged:
            trace.gmem_read(
                geom.batch * geom.hkv * (geom.seq_len / 64.0) * 8.0,
                AccessPattern.SCATTERED,
            )

        # Both GEMVs on CUDA cores; FMA GEMV sustains a fraction of peak, so
        # the effective FLOP cost is inflated by 1/efficiency.
        gemv_flops = 2.0 * 2.0 * geom.batch * geom.hq * geom.q_len * geom.seq_len * d
        trace.fma_flops += gemv_flops / CUDA_GEMV_EFFICIENCY

        # Dequant instructions interleave into the same FMA GEMV stream and
        # run at its degraded issue rate, so their cost inflates equally.
        dq = dequant_ops(geom.kv_elements * geom.gq, self.bits, "lop3").scaled(
            1.0 / CUDA_GEMV_EFFICIENCY
        )
        trace.merge(dq)
        trace.merge(
            softmax_ops(
                geom.batch * geom.hq * geom.q_len * geom.seq_len,
                geom.batch * geom.hq * geom.q_len,
            )
        )
        trace.smem_traffic(2.0 * packed_bytes)
        trace.barriers_per_block += 2.0

        grid = geom.batch * geom.hq  # query-head parallel, no split-KV
        smem = 32 * 1024
        occ = occupancy(self.arch, grid, _QSERVE_WARPS, smem)
        # Fused single kernel: loads overlap compute reasonably, but dequant
        # and GEMV share the CUDA pipes (nothing hides them under an MMA).
        hide = memory_hide_factor(occ.blocks_per_sm * _QSERVE_WARPS, pipelined=True)
        return KernelLaunch(
            name=self.name,
            trace=trace,
            grid_blocks=grid,
            warps_per_block=_QSERVE_WARPS,
            smem_per_block_bytes=smem,
            hide_factor=hide,
            instruction_path="sm80",
            launches=1,
            subtraces={"dequant": dq},
        )

    def decode_result(self, geom: AttentionGeometry, paged: bool = True) -> KernelResult:
        return simulate_kernel(self.arch, self.build_launch(geom, paged=paged))

    @memoized_latency
    def decode_time_ms(self, geom: AttentionGeometry, paged: bool = True) -> float:
        return self.decode_result(geom, paged=paged).time_ms
