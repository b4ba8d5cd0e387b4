"""Atom baseline: fused 4-bit attention on CUDA cores, MHA only.

Atom (Zhao et al., 2024) quantizes the KV cache inside the *preceding
linear layer* (so attention pays no quantization cost) and runs a fused
CUDA-core attention over the 4-bit cache.  Like QServe it issues FMA GEMVs
with inline dequantization, so it is QServe's launch with three changes:
no GQA support (the paper notes this explicitly, so a GQA geometry
raises), no page-table read, and the naive conversion path — Fig. 15b's
micro analysis shows Atom's high FMA/ALU pressure and zero Tensor-Core
use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.qserve import QServe


@dataclass
class Atom(QServe):
    """Fused CUDA-core 4-bit decode attention (MHA only)."""

    group_size: int = 128

    name = "Atom"
    dequant_method = "cvt"
    supports_gqa = False
    reads_page_table = False
