"""KIVI baseline: non-fused low-bit attention with separated kernels.

KIVI (Liu et al., 2024) implements 2-/4-bit KV attention as a chain of
standalone Triton kernels: a QK kernel (dequantizing K tile-by-tile but
writing the full score matrix to global memory), a softmax kernel, and a
PV kernel, plus small quantization kernels for newly appended tokens.  The
paper's critique (Sec. II):

- the isolated launches repeatedly move intermediates through global
  memory and pay per-kernel launch overhead;
- kernels parallelize over *query* heads with no sequence split, so small
  batches underfill the machine and GQA re-streams each KV head ``g_q``
  times;
- the non-tiled formulation materializes the full score matrix — which is
  also why long-context prefill OOMs (Fig. 12a).

Numerics use the same integer quantization substrate as BitDecoding, so
accuracy comparisons are apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.common import gqa_reread_traffic, int_kv_metadata_bytes
from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import dequant_ops, softmax_ops
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, simulate_kernel
from repro.gpu.sm import occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import memory_hide_factor

#: Kernel launches per decode step: QK, softmax, PV, token quant, append.
_KIVI_LAUNCHES = 5

_KIVI_WARPS = 4


@dataclass
class Kivi:
    """Non-fused low-bit attention (KIVI-4 / KIVI-2)."""

    arch: ArchSpec
    bits: int = 4
    group_size: int = 32  # KIVI quantizes in groups of 32 along seq

    def __post_init__(self) -> None:
        if self.bits not in (2, 4):
            raise ValueError("KIVI supports 2- and 4-bit caches")

    @property
    def name(self) -> str:
        return f"KIVI-{self.bits}"

    # -------------------------------------------------------------- numerics

    def run_numeric(self, q: np.ndarray, k_hat: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        """Non-fused attention: full score matrix materialized (no tiling).

        ``k_hat``/``v_hat`` are dequantized rows (the quantization error is
        applied by the shared substrate); this mirrors KIVI's numerics,
        which match any other correct softmax up to float associativity.
        """
        q = np.asarray(q, dtype=np.float32)
        s = (q @ np.asarray(k_hat, np.float32).T) / math.sqrt(q.shape[-1])
        s = s - s.max(axis=-1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=-1, keepdims=True)
        return p @ np.asarray(v_hat, np.float32)

    # ------------------------------------------------------------------ perf

    def build_launch(self, geom: AttentionGeometry) -> KernelLaunch:
        d = geom.head_dim
        heads = geom.batch * geom.hkv

        packed_bytes = geom.kv_elements * self.bits / 8.0
        meta_bytes = int_kv_metadata_bytes(geom, self.group_size)
        dram_kv, l2_kv = gqa_reread_traffic(self.arch, geom, packed_bytes + meta_bytes)

        trace = OpTrace()
        # KIVI's packed layout interleaves group-of-32 metadata with data;
        # the Triton GEMV tiles read it at roughly half coalescing.
        trace.gmem_read(dram_kv * 0.5)
        trace.gmem_read(dram_kv * 0.5, AccessPattern.STRIDED)
        trace.l2_read(l2_kv)
        # Intermediate score/probability matrices round-trip global memory:
        # QK writes S, softmax reads S writes P, PV reads P.
        s_bytes = geom.batch * geom.hq * geom.q_len * geom.seq_len * 2.0
        trace.gmem_read(2.0 * s_bytes)
        trace.gmem_write(2.0 * s_bytes)
        trace.gmem_read(geom.batch * geom.hq * geom.q_len * d * 2.0)  # Q
        trace.gmem_write(geom.batch * geom.hq * geom.q_len * d * 2.0)  # O

        # Matmuls run on tensor cores (Triton tl.dot); each query head is a
        # separate M=1 GEMV padded to the 16-row MMA tile.
        single_head_m_pad = 16.0
        trace.tensor_core(
            2.0 * 2.0 * geom.batch * geom.hq * single_head_m_pad * geom.seq_len * d,
            "fp16",
        )
        trace.merge(dequant_ops(geom.kv_elements * geom.gq, self.bits, "lop3"))
        trace.merge(
            softmax_ops(geom.batch * geom.hq * geom.q_len * geom.seq_len,
                        geom.batch * geom.hq * geom.q_len)
        )
        trace.smem_traffic(2.0 * packed_bytes)
        trace.barriers_per_block += 2.0

        # The GEMV kernels parallelize over sequence blocks (natural for a
        # (1, L) output), so occupancy is healthy; the non-fused costs are
        # the intermediate round trips, the launches, and the GQA re-reads.
        grid = geom.batch * geom.hq * max(1, math.ceil(geom.seq_len / 128))
        smem = 48 * 1024
        occ = occupancy(self.arch, grid, _KIVI_WARPS, smem)
        hide = memory_hide_factor(occ.blocks_per_sm * _KIVI_WARPS, pipelined=True)
        return KernelLaunch(
            name=self.name,
            trace=trace,
            grid_blocks=grid,
            warps_per_block=_KIVI_WARPS,
            smem_per_block_bytes=smem,
            hide_factor=hide,
            instruction_path="sm80",
            launches=_KIVI_LAUNCHES,
        )

    def decode_result(self, geom: AttentionGeometry) -> KernelResult:
        return simulate_kernel(self.arch, self.build_launch(geom))

    @memoized_latency
    def decode_time_ms(self, geom: AttentionGeometry) -> float:
        return self.decode_result(geom).time_ms

    # -------------------------------------------------------------- capacity

    def prefill_workspace_bytes(self, geom: AttentionGeometry) -> float:
        """Peak prefill workspace: the materialized score matrix.

        Without block tiling, prefill attention holds an ``L x L`` score
        tile (FP16) per concurrently-processed head (two in flight).  This
        is the term that OOMs at 128K (Fig. 12a).
        """
        return 2.0 * float(geom.seq_len) ** 2 * 2.0

    def cache_bytes(self, geom: AttentionGeometry) -> float:
        return geom.kv_elements * self.bits / 8.0 + int_kv_metadata_bytes(geom, self.group_size)
