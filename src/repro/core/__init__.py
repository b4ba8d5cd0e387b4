"""BitDecoding core: the paper's primary contribution.

Subpackage map (paper section in parentheses):

- :mod:`repro.core.layouts` — fragment layouts + layout induction (IV-A(1))
- :mod:`repro.core.packing` — bit packing, ``75316420`` interleave (IV-A(3))
- :mod:`repro.core.quantization` — INT-k KC/KT + MXFP4/NVFP4 (V-B, V-D)
- :mod:`repro.core.residual_cache` — Eq. 1 residual sizing (IV-A(2))
- :mod:`repro.core.residual_kernel` — fused quant+pack kernel (V-B)
- :mod:`repro.core.packing_kernel` — fused dequant+attention kernel (V-C)
- :mod:`repro.core.softmax` — cooperative softmax, Algorithm 1 (IV-B(2))
- :mod:`repro.core.query_transform` — GQA/MQA query grouping (V-A)
- :mod:`repro.core.arch_support` — Hopper/Blackwell paths (V-D)
- :mod:`repro.core.attention` — the contiguous cache + decode engine

The *public* cache/engine API moved to :mod:`repro.attn` (the
``AttentionBackend`` protocol and its paged / analytical
implementations).  The 0.2-era ``repro.core.BitDecoding`` /
``repro.core.BitKVCache`` re-export shims were removed in 0.4; the
classes themselves live on in :mod:`repro.core.attention`: the engine
the paged backend decodes with, and the contiguous cache it is checked
against.
"""

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.quantization import QuantScheme

__all__ = [
    "AttentionGeometry",
    "BitDecodingConfig",
    "QuantScheme",
]
