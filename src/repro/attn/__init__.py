"""Public attention API: one protocol, three backends.

This package is the public face of the cache + engine layer (absorbing
the role :mod:`repro.core.attention` used to play):

- :class:`~repro.attn.protocol.AttentionBackend` — ``prefill(q, kv,
  block_table)`` / ``decode_step(q, block_table)`` over an opaque
  :class:`~repro.attn.protocol.KVCacheHandle`, plus the step-pricing
  surface the serving engine schedules with.
- :class:`~repro.attn.paged.PagedBitBackend` — packed low-bit blocks in
  a shared page pool behind per-sequence block tables (the serving
  cache; preemption frees packed pages).
- :class:`~repro.attn.contiguous.ContiguousBitBackend` — the contiguous
  struct-of-arrays :class:`~repro.core.attention.BitKVCache`, kept as
  the bit-exact reference.
- :class:`~repro.attn.analytical.AnalyticalBackend` — the end-to-end
  latency model, demoted to just another implementation.

:class:`~repro.attn.runner.ModelRunner` (imported from its module: it
pulls in :mod:`repro.model`, which imports this package) drives real
tokens through a :class:`~repro.model.transformer.TinyTransformer` wired
to the paged backend, sharing the serving engine's page table.
"""

from repro.attn.analytical import AnalyticalBackend
from repro.attn.contiguous import ContiguousBitBackend, ContiguousHandle
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
    "ContiguousBitBackend",
    "ContiguousHandle",
    "KVCacheHandle",
    "PagedBatchHandle",
    "PagedBitBackend",
    "PagedBitKVCache",
    "PagedSeqHandle",
    "chunked_causal_attention",
]
