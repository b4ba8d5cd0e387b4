"""Baseline systems the paper compares against.

==================  =============================  =========================
system              design                          weakness the paper shows
==================  =============================  =========================
FlashDecoding-v2    FP16, Tensor Cores, split-KV    2x cache bytes
FlashAttention-3    FP16, Hopper wgmma/TMA          still 2x cache bytes
KIVI                low-bit, separated kernels      launches + traffic, GQA
QServe              low-bit, fused, CUDA cores      no Tensor Cores, GQA
Atom                low-bit, fused, CUDA cores      MHA only, naive casts
Marlin              weight repack utility           host-side pre-transform
Ladder              weight layout compiler          static-shape transforms
ContinuousPacking   repack every step               Fig. 16 baseline
==================  =============================  =========================
"""

from repro.baselines.atom import Atom
from repro.baselines.continuous_packing import ContinuousPacking, ablation_config
from repro.baselines.flash_decoding import FlashDecodingV2, FlashDecodingV3
from repro.baselines.kivi import Kivi
from repro.baselines.ladder import LadderTransform
from repro.baselines.marlin import MarlinRepack
from repro.baselines.qserve import QServe

__all__ = [
    "Atom",
    "ContinuousPacking",
    "ablation_config",
    "FlashDecodingV2",
    "FlashDecodingV3",
    "Kivi",
    "LadderTransform",
    "MarlinRepack",
    "QServe",
]
