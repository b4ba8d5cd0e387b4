"""FP16 baselines: FlashDecoding-v2 and the FlashAttention-3 decode path.

FlashDecoding (the paper's speedup-normalization baseline) is
FlashAttention-2's decode kernel with split-KV partitioning: the KV
sequence is divided across thread blocks so small-batch decode still fills
the machine, and a reduction kernel merges the partial softmax states.
``FlashDecodingV3`` is the Hopper rebuild with
``wgmma`` + TMA (the "Flash-attn-v3" series) — it escapes the ~35% legacy
SM80 instruction penalty.

All of them read the *FP16* cache; their numerics are exact attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.common import attention_gflops
from repro.core.config import AttentionGeometry
from repro.core.query_transform import gemm_m_dimension
from repro.core.softmax import split_kv_attention
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import rescale_accum_ops, softmax_ops
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, simulate_kernel
from repro.gpu.sm import occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import memory_hide_factor

#: FlashAttention-2 decode warp layout: all warps along M (the layout the
#: paper's Fig. 4 discusses); fine for FP16 since there is no dequant to
#: stall on.
_FA2_WARPS = 4


@dataclass
class FlashDecodingV2:
    """FP16 split-KV decode attention (the 1.0x reference)."""

    arch: ArchSpec
    tile_n: int = 128
    name: str = "FlashDecoding-v2"

    # -------------------------------------------------------------- numerics

    def run_numeric(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, n_splits: int = 4
    ) -> np.ndarray:
        """Exact FP16 attention for one head: ``q (M, d)``, ``k/v (L, d)``."""
        return split_kv_attention(q, k, v, n_splits, tile_n=self.tile_n)

    # ------------------------------------------------------------------ perf

    def n_splits(self, geom: AttentionGeometry) -> int:
        base_blocks = geom.batch * geom.hkv
        tiles = max(1, math.ceil(geom.seq_len / self.tile_n))
        want = max(1, (2 * self.arch.sm_count) // max(base_blocks, 1))
        return max(1, min(want, tiles))

    def build_launch(self, geom: AttentionGeometry, paged: bool = False) -> KernelLaunch:
        d = geom.head_dim
        _, m_pad = gemm_m_dimension(geom.hq, geom.hkv, geom.q_len)
        heads = geom.batch * geom.hkv
        splits = self.n_splits(geom)

        trace = OpTrace()
        pattern = AccessPattern.STRIDED if paged else AccessPattern.COALESCED
        trace.gmem_read(geom.kv_bytes_fp16, pattern)
        trace.gmem_read(heads * splits * m_pad * d * 2.0)  # Q per block
        if splits > 1:
            partial = heads * splits * m_pad * (d + 2.0) * 4.0
            trace.gmem_write(partial)
            trace.gmem_read(partial)
            trace.gmem_write(heads * m_pad * d * 2.0)
        else:
            trace.gmem_write(heads * m_pad * d * 2.0)

        trace.tensor_core(attention_gflops(geom, m_pad), "fp16")
        trace.merge(softmax_ops(heads * m_pad * geom.seq_len, heads * m_pad))
        tiles = heads * math.ceil(geom.seq_len / self.tile_n)
        trace.merge(rescale_accum_ops(m_pad * d * tiles))
        # FP16 tiles staged through smem (cp.async in + ldmatrix out).
        trace.smem_traffic(2.0 * geom.kv_bytes_fp16)
        trace.barriers_per_block += 2.0 * math.ceil(geom.seq_len / (splits * self.tile_n))

        grid = heads * splits
        # K+V FP16 tiles + Q; double-buffer only where the SM has room
        # (consumer parts run these kernels single-buffered).
        tile_pair = 2 * self.tile_n * d * 2
        smem = int(tile_pair + m_pad * d * 2 + 2048)
        if smem + tile_pair <= self.arch.smem_per_sm_bytes:
            smem += tile_pair
        occ = occupancy(self.arch, grid, _FA2_WARPS, smem)
        # FP16 kernels have no dequantization to stall on; overlap quality
        # is set by the cp.async double buffering and resident warps.
        hide = memory_hide_factor(occ.blocks_per_sm * _FA2_WARPS, pipelined=True)
        return KernelLaunch(
            name=self.name,
            trace=trace,
            grid_blocks=grid,
            warps_per_block=_FA2_WARPS,
            smem_per_block_bytes=smem,
            hide_factor=hide,
            instruction_path=self._instruction_path(),
            launches=2 if splits > 1 else 1,
        )

    def _instruction_path(self) -> str:
        return "sm80"

    def decode_result(self, geom: AttentionGeometry, paged: bool = False) -> KernelResult:
        return simulate_kernel(self.arch, self.build_launch(geom, paged=paged))

    @memoized_latency
    def decode_time_ms(self, geom: AttentionGeometry, paged: bool = False) -> float:
        return self.decode_result(geom, paged=paged).time_ms


@dataclass
class FlashDecodingV3(FlashDecodingV2):
    """Hopper rebuild: ``wgmma`` warpgroups + TMA (``Flash-attn-v3``).

    Needs a device with warpgroup MMA; on anything else construction of a
    launch raises, mirroring the real kernel's SM90 requirement.
    """

    name: str = "Flash-attn-v3"

    def _instruction_path(self) -> str:
        return "sm90"

    def build_launch(self, geom: AttentionGeometry, paged: bool = False) -> KernelLaunch:
        launch = super().build_launch(geom, paged=paged)
        # Warp-specialized producer/consumer pipeline: better overlap.
        launch.hide_factor = min(1.0, launch.hide_factor + 0.15)
        return launch
