"""Atom baseline: fused 4-bit attention on CUDA cores, MHA only.

Atom (Zhao et al., 2024) quantizes the KV cache inside the *preceding
linear layer* (so attention pays no quantization cost) and runs a fused
CUDA-core attention over the 4-bit cache.  Like QServe it issues FMA GEMVs
with inline dequantization; unlike QServe it has no GQA support (the paper
notes this explicitly), so constructing it for a GQA geometry raises.

The dequantization uses the naive conversion path — Fig. 15b's micro
analysis shows Atom's high FMA/ALU pressure and zero Tensor-Core use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import CUDA_GEMV_EFFICIENCY, int_kv_metadata_bytes
from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import dequant_ops, softmax_ops
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, simulate_kernel
from repro.gpu.sm import occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import memory_hide_factor

_ATOM_WARPS = 4


@dataclass
class Atom:
    """Fused CUDA-core 4-bit decode attention (MHA only)."""

    arch: ArchSpec
    bits: int = 4
    group_size: int = 128

    @property
    def name(self) -> str:
        return "Atom"

    def build_launch(self, geom: AttentionGeometry, paged: bool = True) -> KernelLaunch:
        if geom.gq != 1:
            raise ValueError(
                f"Atom does not support GQA (geometry has gq={geom.gq}); "
                "the paper evaluates it on MHA workloads only"
            )
        d = geom.head_dim
        packed_bytes = geom.kv_elements * self.bits / 8.0
        meta_bytes = int_kv_metadata_bytes(geom, self.group_size)

        trace = OpTrace()
        pattern = AccessPattern.STRIDED if paged else AccessPattern.COALESCED
        trace.gmem_read(packed_bytes + meta_bytes, pattern)
        trace.gmem_read(geom.batch * geom.hq * geom.q_len * d * 2.0)
        trace.gmem_write(geom.batch * geom.hq * geom.q_len * d * 2.0)

        gemv_flops = 2.0 * 2.0 * geom.batch * geom.hq * geom.q_len * geom.seq_len * d
        trace.fma_flops += gemv_flops / CUDA_GEMV_EFFICIENCY

        # Naive casts, issued inside the degraded FMA GEMV stream.
        dq = dequant_ops(geom.kv_elements, self.bits, "cvt").scaled(1.0 / CUDA_GEMV_EFFICIENCY)
        trace.merge(dq)
        trace.merge(
            softmax_ops(
                geom.batch * geom.hq * geom.q_len * geom.seq_len,
                geom.batch * geom.hq * geom.q_len,
            )
        )
        trace.smem_traffic(2.0 * packed_bytes)
        trace.barriers_per_block += 2.0

        grid = geom.batch * geom.hq
        smem = 32 * 1024
        occ = occupancy(self.arch, grid, _ATOM_WARPS, smem)
        hide = memory_hide_factor(occ.blocks_per_sm * _ATOM_WARPS, pipelined=True)
        return KernelLaunch(
            name=self.name,
            trace=trace,
            grid_blocks=grid,
            warps_per_block=_ATOM_WARPS,
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
