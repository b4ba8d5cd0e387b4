"""The contiguous struct-of-arrays backend: today's ``BitKVCache`` path.

This is the bit-exact reference implementation of the protocol — the
same batched SoA cache and fused kernels the numerics test suite pins,
wrapped behind :class:`~repro.attn.protocol.AttentionBackend` so the
transformer and the parity tests can swap it against the paged backend.
All sequences in a handle share a length (the paper's padded "Batches"
setting); ragged serving belongs to the paged backend.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle, coerce_engine
from repro.attn.reference import chunked_causal_attention
from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import ArchSpec


class ContiguousHandle(KVCacheHandle):
    """One layer's :class:`BitKVCache`, created lazily at first prefill."""

    def __init__(self, batch: int, hkv: int, head_dim: int, config: BitDecodingConfig):
        self.batch = batch
        self.hkv = hkv
        self.head_dim = head_dim
        self.config = config
        self.cache: Optional[BitKVCache] = None

    @property
    def seq_len(self) -> int:
        return 0 if self.cache is None else self.cache.seq_len


class ContiguousBitBackend(AttentionBackend):
    """Quantized decode over the contiguous two-part cache (the reference)."""

    def __init__(
        self,
        engine: Union[BitDecoding, BitDecodingConfig, None] = None,
        arch: Union[ArchSpec, str] = "a100",
    ):
        self.engine = coerce_engine(engine, arch)
        self.config = self.engine.config

    @property
    def attention_system(self) -> BitDecoding:
        return self.engine

    # ------------------------------------------------------------- numerics

    def new_handle(self, batch: int, hkv: int, head_dim: int) -> ContiguousHandle:
        return ContiguousHandle(batch, hkv, head_dim, self.config)

    def prefill(
        self,
        q: Optional[np.ndarray],
        kv: Tuple[np.ndarray, np.ndarray],
        block_table: KVCacheHandle,
    ) -> Optional[np.ndarray]:
        bt: ContiguousHandle = block_table
        if bt.cache is not None:
            raise NotImplementedError(
                "the contiguous cache packs whole prompts; chunked prefill "
                "continuation needs the paged-bit backend"
            )
        k, v = kv
        bt.cache = BitKVCache.from_prefill(
            np.asarray(k, np.float16), np.asarray(v, np.float16), self.config
        )
        if q is None:
            return None
        return chunked_causal_attention(q, None, None, k, v)

    def append_kv(self, kv: Tuple[np.ndarray, np.ndarray], block_table: KVCacheHandle) -> None:
        bt: ContiguousHandle = block_table
        if bt.cache is None:
            bt.cache = BitKVCache(bt.batch, bt.hkv, bt.head_dim, self.config)
        bt.cache.append_token(*kv)

    def decode_step(self, q: np.ndarray, block_table: KVCacheHandle) -> np.ndarray:
        bt: ContiguousHandle = block_table
        if bt.cache is None:
            raise ValueError("decode on an empty cache handle")
        return self.engine.decode(q, bt.cache)
