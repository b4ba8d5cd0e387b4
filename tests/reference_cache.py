"""The seed per-block KV cache, retained as a slow reference.

This is the pre-vectorization *orchestration* of ``BitKVCache`` /
``BitDecoding.decode``: nested Python loops over ``blocks[b][h]`` lists of
per-block objects, per-head :class:`ResidualBuffer` objects and
per-(batch, head) kernel calls.  It exists so the
batched struct-of-arrays cache can be proven *bit-exact* against the
per-block semantics (see ``tests/core/test_vectorized_cache.py``) and so
``benchmarks/bench_kernel_hotpath.py`` can measure the speedup the
vectorization buys.

Scope of the equivalence: this reference shares the low-level primitives
(``quantize``/``dequantize``/``pack_values``/``flush_block``/
``run_numeric``) with the vectorized path, so the sweep pins the
batched-vs-per-block *orchestration*, not the primitives themselves —
those are pinned separately by their own unit tests
(``tests/core/test_quantization.py``, ``test_packing.py``,
``test_residual_kernel.py``, ``test_softmax.py``), which predate the
vectorization and ran unchanged against it.  Do not "optimize" this
file — its slowness is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import run_numeric, split_states
from repro.core.query_transform import group_queries, ungroup_output
from repro.core.residual_cache import partition_prefill
from repro.core.residual_kernel import (
    Fp4Block,
    PackedBlock,
    attend_residual,
    flush_block,
)
from repro.core.softmax import OnlineSoftmaxState


@dataclass
class ResidualBuffer:
    """FP16 K/V residual for one (sequence, KV-head) pair: the per-head
    twin of ``repro.core.residual_cache.BatchedResidual``.

    Appending the token that fills the buffer returns the *complete block*
    for the Residual Kernel to quantize; the buffer then empties.
    """

    capacity: int
    head_dim: int
    k: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    length: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.head_dim <= 0:
            raise ValueError("capacity and head_dim must be positive")
        self.k = np.zeros((self.capacity, self.head_dim), dtype=np.float16)
        self.v = np.zeros((self.capacity, self.head_dim), dtype=np.float16)

    @property
    def is_full(self) -> bool:
        return self.length == self.capacity

    def append(
        self, k_new: np.ndarray, v_new: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Append one token's K/V rows; return the full block when it flushes.

        Returns ``None`` while the buffer is filling.  When the append
        completes the block (``res_len == N_r``), returns FP16 copies of the
        block's (K, V) and resets the buffer.
        """
        k_new = np.asarray(k_new, dtype=np.float16).reshape(self.head_dim)
        v_new = np.asarray(v_new, dtype=np.float16).reshape(self.head_dim)
        if self.is_full:
            raise RuntimeError("append on a full residual buffer (missed flush)")
        self.k[self.length] = k_new
        self.v[self.length] = v_new
        self.length += 1
        if not self.is_full:
            return None
        block = (self.k.copy(), self.v.copy())
        self.length = 0
        return block

    def fill(self, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Bulk-load the residual from a prefill remainder (< capacity rows)."""
        k_rows = np.asarray(k_rows, dtype=np.float16)
        v_rows = np.asarray(v_rows, dtype=np.float16)
        n = k_rows.shape[0]
        if n >= self.capacity:
            raise ValueError(
                f"prefill remainder ({n}) must be smaller than the block size "
                f"({self.capacity}); pack complete blocks first"
            )
        if v_rows.shape[0] != n:
            raise ValueError("K and V remainders must have equal length")
        self.length = n
        self.k[:n] = k_rows
        self.v[:n] = v_rows

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Valid (K, V) rows currently in the residual."""
        return self.k[: self.length], self.v[: self.length]

    @property
    def nbytes(self) -> int:
        """FP16 storage the residual occupies (constant, = 2 buffers)."""
        return self.k.nbytes + self.v.nbytes


class ReferenceBitKVCache:
    """Per-(sequence, kv-head) lists of packed blocks + residual buffers."""

    def __init__(self, batch: int, hkv: int, head_dim: int, config: BitDecodingConfig):
        if min(batch, hkv, head_dim) <= 0:
            raise ValueError("batch, hkv and head_dim must be positive")
        self.batch = batch
        self.hkv = hkv
        self.head_dim = head_dim
        self.config = config
        nr = config.residual_block_size
        self.blocks: List[List[List[Union[PackedBlock, Fp4Block]]]] = [
            [[] for _ in range(hkv)] for _ in range(batch)
        ]
        self.residuals: List[List[ResidualBuffer]] = [
            [ResidualBuffer(nr, head_dim) for _ in range(hkv)] for _ in range(batch)
        ]
        self.seq_len = 0

    @classmethod
    def from_prefill(
        cls, k: np.ndarray, v: np.ndarray, config: BitDecodingConfig
    ) -> "ReferenceBitKVCache":
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or k.shape != v.shape:
            raise ValueError("k and v must both be [batch, hkv, seq, d]")
        batch, hkv, seq_len, d = k.shape
        cache = cls(batch, hkv, d, config)
        nr = config.residual_block_size
        packed_len, res_len = partition_prefill(seq_len, nr)
        for b in range(batch):
            for h in range(hkv):
                for t0 in range(0, packed_len, nr):
                    cache.blocks[b][h].append(
                        flush_block(k[b, h, t0 : t0 + nr], v[b, h, t0 : t0 + nr], config)
                    )
                if res_len:
                    cache.residuals[b][h].fill(
                        k[b, h, packed_len:], v[b, h, packed_len:]
                    )
        cache.seq_len = seq_len
        return cache

    def append_token(self, k_new: np.ndarray, v_new: np.ndarray) -> bool:
        k_new = np.asarray(k_new)
        v_new = np.asarray(v_new)
        expected = (self.batch, self.hkv, self.head_dim)
        if k_new.shape != expected or v_new.shape != expected:
            raise ValueError(f"new K/V must have shape {expected}")
        flushed = False
        for b in range(self.batch):
            for h in range(self.hkv):
                block = self.residuals[b][h].append(k_new[b, h], v_new[b, h])
                if block is not None:
                    self.blocks[b][h].append(
                        flush_block(block[0], block[1], self.config)
                    )
                    flushed = True
        self.seq_len += 1
        return flushed

    def packed_len(self) -> int:
        if not self.blocks[0][0]:
            return 0
        return sum(blk.length for blk in self.blocks[0][0])

    def res_len(self) -> int:
        return self.residuals[0][0].length

    def dequantized_packed(self, b: int, h: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block unpack + dequant + concatenate — re-done on every call."""
        blocks = self.blocks[b][h]
        if not blocks:
            d = self.head_dim
            return np.zeros((0, d), np.float32), np.zeros((0, d), np.float32)
        ks, vs = zip(*(blk.dequant_kv(self.config) for blk in blocks))
        return np.concatenate(ks, axis=0), np.concatenate(vs, axis=0)

    def residual_view(self, b: int, h: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.residuals[b][h].view()

    @property
    def packed_nbytes(self) -> float:
        return sum(
            blk.packed_nbytes for row in self.blocks for head in row for blk in head
        )

    @property
    def meta_nbytes(self) -> float:
        return sum(
            blk.meta_nbytes for row in self.blocks for head in row for blk in head
        )

    @property
    def residual_nbytes(self) -> float:
        return sum(r.nbytes for row in self.residuals for r in row)

    @property
    def total_nbytes(self) -> float:
        return self.packed_nbytes + self.meta_nbytes + self.residual_nbytes


def reference_decode(
    config: BitDecodingConfig,
    q: np.ndarray,
    cache: ReferenceBitKVCache,
    n_splits: Optional[int] = None,
) -> np.ndarray:
    """The seed decode loop: per-(batch, kv-head) kernel calls + merge.

    The seed implementation predates ``numerics_mode`` and always walked
    ``tile_n`` tiles through the online softmax, so this reference pins
    ``exact_tiled`` regardless of what the caller's config selects.
    """
    config = config.with_overrides(numerics_mode="exact_tiled")
    q = np.asarray(q, dtype=np.float32)
    if q.ndim != 4:
        raise ValueError("q must be [batch, q_len, hq, d]")
    batch, q_len, hq, d = q.shape
    scale = 1.0 / math.sqrt(d)
    grouped = group_queries(q, cache.hkv)  # [b, hkv, M, d]
    out = np.empty_like(grouped)
    for b in range(batch):
        for h in range(cache.hkv):
            q_bh = grouped[b, h]
            k_hat, v_hat = cache.dequantized_packed(b, h)
            states: List[OnlineSoftmaxState] = []
            if k_hat.shape[0]:
                if n_splits and n_splits > 1:
                    states.extend(
                        split_states(q_bh, k_hat, v_hat, config, n_splits, scale)
                    )
                else:
                    states.append(run_numeric(q_bh, k_hat, v_hat, config, scale))
            k_res, v_res = cache.residual_view(b, h)
            if k_res.shape[0]:
                states.append(attend_residual(q_bh, k_res, v_res, config, scale))
            if not states:
                raise ValueError("decode on an empty cache")
            merged = states[0]
            for st in states[1:]:
                merged.merge(st)
            out[b, h] = merged.finalize()
    return ungroup_output(out, hq, q_len)
