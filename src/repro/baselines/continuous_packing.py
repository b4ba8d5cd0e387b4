"""Continuous-packing baseline for the Fig. 16 breakdown.

Following the QuaRot-style approach the paper uses as its breakdown
baseline ([2], Sec. VI-C): the low-bit cache is quantized and re-packed at
*every* generation step — a full pass over the packed data to keep the
layout valid after each append — and the attention kernel itself runs
without BitDecoding's layout induction (so every tile pays an explicit
layout transform), with the original ``Wn = 1`` warp design, and without
the software pipeline.

The three optimizations are then enabled cumulatively via the config
flags, which is exactly how ``repro.bench.figures.fig16_breakdown`` builds
the bars:

====================  ==========================================
bar                   config
====================  ==========================================
Baseline              repack pass + all three flags off
+ Layout              repack pass dropped, induction on
+ Layout + Warps      ... and ``use_warp_parallel`` on
+ ... + Pipeline      full BitDecoding
====================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import build_packing_launch
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import quant_pack_ops
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, simulate_kernel
from repro.gpu.trace import OpTrace


def ablation_config(
    base: BitDecodingConfig, layout: bool, warps: bool, pipeline: bool
) -> BitDecodingConfig:
    """Config with the breakdown's three knobs set explicitly."""
    return base.with_overrides(
        use_layout_induction=layout,
        use_warp_parallel=warps,
        use_pipeline=pipeline,
    )


def build_repack_launch(
    geom: AttentionGeometry, config: BitDecodingConfig, arch: ArchSpec
) -> KernelLaunch:
    """Per-step full-cache repack pass of the continuous-packing baseline."""
    packed_bytes = geom.kv_elements * config.bits / 8.0
    trace = OpTrace()
    trace.gmem_read(packed_bytes)
    trace.gmem_write(packed_bytes)
    trace.merge(quant_pack_ops(float(geom.kv_elements), config.bits, config.key_group_size))
    return KernelLaunch(
        name="continuous_repack",
        trace=trace,
        grid_blocks=max(1, geom.batch * geom.hkv * (geom.seq_len // 512)),
        warps_per_block=4,
        smem_per_block_bytes=16 * 1024,
        hide_factor=0.8,
        instruction_path="sm80",
        launches=1,
    )


@dataclass
class ContinuousPacking:
    """The full breakdown baseline: repack pass + unoptimized attention."""

    arch: ArchSpec
    config: BitDecodingConfig

    def decode_results(self, geom: AttentionGeometry) -> List[KernelResult]:
        cfg = ablation_config(self.config, layout=False, warps=False, pipeline=False)
        attention = build_packing_launch(geom, cfg, self.arch)
        repack = build_repack_launch(geom, cfg, self.arch)
        return [
            simulate_kernel(self.arch, repack),
            simulate_kernel(self.arch, attention),
        ]

    @memoized_latency
    def decode_time_ms(self, geom: AttentionGeometry) -> float:
        return sum(r.time_ms for r in self.decode_results(geom))
