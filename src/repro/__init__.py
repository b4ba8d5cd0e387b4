"""BitDecoding reproduction: low-bit KV-cache decoding with Tensor Cores.

A full-system Python reproduction of *BitDecoding: Unlocking Tensor Cores
for Long-Context LLMs with Low-Bit KV Cache* (HPCA 2026).  The package
pairs bit-exact numerics (quantization, fragment-layout packing,
cooperative softmax) with a trace-driven GPU performance model that
reproduces the paper's evaluation across Ampere/Ada/Hopper/Blackwell.

The public attention API is the :class:`~repro.attn.AttentionBackend`
protocol with three implementations — paged low-bit (serving), contiguous
low-bit (bit-exact reference) and analytical (cost model):

    import numpy as np
    from repro import BitDecodingConfig, ContiguousBitBackend

    backend = ContiguousBitBackend(BitDecodingConfig(bits=4), "a100")
    cache = backend.new_handle(batch=1, hkv=8, head_dim=128)
    k = np.random.randn(1, 8, 1024, 128).astype(np.float16)
    v = np.random.randn(1, 8, 1024, 128).astype(np.float16)
    backend.prefill(None, (k, v), cache)
    q = np.random.randn(1, 1, 32, 128).astype(np.float32)
    out = backend.decode_step(q, cache)

The lower-level ``BitDecoding`` engine / ``BitKVCache`` pair remains
available for kernel-granular work (simulated launches, ablations) from
:mod:`repro.core.attention`.
"""

from repro.attn import (
    AnalyticalBackend,
    AttentionBackend,
    ContiguousBitBackend,
    KVCacheHandle,
    PagedBitBackend,
    get_backend,
)
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.quantization import QuantScheme
from repro.gpu import ArchSpec, get_arch

__version__ = "0.4.0"

__all__ = [
    "AnalyticalBackend",
    "AttentionBackend",
    "AttentionGeometry",
    "BitDecodingConfig",
    "ContiguousBitBackend",
    "KVCacheHandle",
    "PagedBitBackend",
    "QuantScheme",
    "ArchSpec",
    "get_arch",
    "get_backend",
    "__version__",
]
