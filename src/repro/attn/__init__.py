"""Public attention API: one protocol, two backends.

This package is the public face of the cache + engine layer (absorbing
the role :mod:`repro.core.attention` used to play):

- :class:`~repro.attn.protocol.AttentionBackend` — ``prefill(q, kv,
  block_table)`` / ``decode_step(q, block_table)`` over an opaque
  :class:`~repro.attn.protocol.KVCacheHandle`, plus the step-pricing
  surface the serving engine schedules with.
- :class:`~repro.attn.paged.PagedBitBackend` — packed low-bit blocks
  (integer or MXFP4/NVFP4) in a shared page pool behind per-sequence
  block tables (the serving cache; preemption frees packed pages).  Its
  decode is bit-identical to :meth:`~repro.core.attention.BitDecoding.decode`
  over the contiguous :class:`~repro.core.attention.BitKVCache`, the
  reference the parity tests compare it with.
- :class:`~repro.attn.analytical.AnalyticalBackend` — the end-to-end
  latency model, demoted to just another implementation.

:class:`~repro.attn.runner.ModelRunner` (imported from its module: it
pulls in :mod:`repro.model`, which imports this package) drives real
tokens through a :class:`~repro.model.transformer.TinyTransformer` wired
to the paged backend, sharing the serving engine's page table.
"""

from repro.attn.analytical import AnalyticalBackend
from repro.attn.paged import (
    PagedBatchHandle,
    PagedBitBackend,
    PagedBitKVCache,
    PagedSeqHandle,
)
from repro.attn.protocol import AttentionBackend, KVCacheHandle
from repro.attn.reference import chunked_causal_attention

__all__ = [
    "AnalyticalBackend",
    "AttentionBackend",
    "KVCacheHandle",
    "PagedBatchHandle",
    "PagedBitBackend",
    "PagedBitKVCache",
    "PagedSeqHandle",
    "chunked_causal_attention",
]
