"""The half-precision residual KV cache (paper Sec. IV-A(2), V-B).

Tensor Cores want fully-populated, alignment-friendly tiles, but the KV
cache grows one token at a time.  BitDecoding therefore splits the cache:

``X = X_pack ∪ X_res`` with ``X_pack = X[:L - N_r]`` quantized+packed and
``X_res = X[L - N_r:]`` kept in FP16.  The residual block size

    ``N_r = P_n x W_n x R``                                       (Eq. 1)

matches the warp tiling of the MMA exactly, so whenever the residual fills
up, one fused Residual-Kernel pass quantizes and packs a *complete,
fragment-aligned* block into the low-bit cache — never a partial tile.
Eq. 1 is computed by
:attr:`~repro.core.config.BitDecodingConfig.residual_block_size`.

This module owns the bookkeeping: appends, flush detection, and the
partitioning of a prefill context.  The numerical flush (quantize + pack)
lives in :mod:`repro.core.residual_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


def partition_prefill(seq_len: int, block_size: int) -> Tuple[int, int]:
    """Split a prefill context of ``seq_len`` tokens into (packed, residual).

    ``N_p = L - (L mod N_r)`` tokens are quantized and packed; the remaining
    ``L mod N_r`` stay in the FP16 residual cache (Sec. V-B(1)).
    """
    if seq_len < 0:
        raise ValueError("seq_len must be non-negative")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    res_len = seq_len % block_size
    return seq_len - res_len, res_len


@dataclass
class BatchedResidual:
    """FP16 K/V residual for a whole ``[batch, hkv]`` cache, one tensor each.

    ``k``/``v`` are ``[batch, hkv, N_r, d]`` with a *shared* fill cursor —
    the paper's padded "Batches" setting keeps every sequence at the same
    length, so all ``batch x hkv`` residuals fill and flush in lock-step.
    An append is one slice write.  The append that fills the buffer hands
    back every head's *complete block* at once for the batched
    quantize+pack, and the buffer empties.  The capacity is always
    ``N_r``, so a flushed block is Tensor-Core aligned by construction.
    """

    batch: int
    hkv: int
    capacity: int
    head_dim: int
    k: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    length: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if min(self.batch, self.hkv, self.capacity, self.head_dim) <= 0:
            raise ValueError("batch, hkv, capacity and head_dim must be positive")
        shape = (self.batch, self.hkv, self.capacity, self.head_dim)
        self.k = np.zeros(shape, dtype=np.float16)
        self.v = np.zeros(shape, dtype=np.float16)

    @property
    def is_full(self) -> bool:
        return self.length == self.capacity

    def append(
        self, k_new: np.ndarray, v_new: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Append one token's K/V rows (``[batch, hkv, d]``) for every head.

        Returns ``None`` while filling; when the append completes the block,
        returns FP16 copies of all heads' blocks (``[batch, hkv, N_r, d]``)
        and resets the shared cursor.
        """
        if self.is_full:
            raise RuntimeError("append on a full residual buffer (missed flush)")
        self.k[:, :, self.length] = np.asarray(k_new, dtype=np.float16)
        self.v[:, :, self.length] = np.asarray(v_new, dtype=np.float16)
        self.length += 1
        if not self.is_full:
            return None
        block = (self.k.copy(), self.v.copy())
        self.length = 0
        return block

    def fill(self, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Bulk-load from a prefill remainder (``[batch, hkv, n, d]``, n < N_r)."""
        k_rows = np.asarray(k_rows, dtype=np.float16)
        v_rows = np.asarray(v_rows, dtype=np.float16)
        n = k_rows.shape[2]
        if n >= self.capacity:
            raise ValueError(
                f"prefill remainder ({n}) must be smaller than the block size "
                f"({self.capacity}); pack complete blocks first"
            )
        if v_rows.shape[2] != n:
            raise ValueError("K and V remainders must have equal length")
        self.length = n
        self.k[:, :, :n] = k_rows
        self.v[:, :, :n] = v_rows

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        """Valid (K, V) rows currently in the residual, ``[batch, hkv, len, d]``."""
        return self.k[:, :, : self.length], self.v[:, :, : self.length]

    @property
    def nbytes(self) -> int:
        """FP16 storage the residual occupies (constant, = 2 buffers)."""
        return self.k.nbytes + self.v.nbytes
