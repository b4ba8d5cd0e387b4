"""Exact grouped-query prefill attention, shared by the paged backend and
the exact reference model.

Prefill is not the paper's focus (the kernels are about *decode* over a
low-bit cache), so both compute prefill attention the same exact way:
one grouped-query attention per chunk, causal within the chunk, unmasked
over whatever context the cache already holds.  Keeping the math in one
place is what makes prefill outputs comparable bit-for-bit — a fresh
prompt is the ``cached == 0`` case and an exact
decode step the ``n == 1`` case of :func:`chunked_causal_attention`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np


def chunked_causal_attention(
    q: np.ndarray,
    k_ctx: Optional[np.ndarray],
    v_ctx: Optional[np.ndarray],
    k_new: np.ndarray,
    v_new: np.ndarray,
) -> np.ndarray:
    """Exact attention of a prefill chunk over context + itself (causal).

    ``q`` is ``[batch, n, hq, d]`` (post-RoPE); ``k_ctx``/``v_ctx`` are
    the ``[batch, hkv, cached, d]`` context the cache already holds (None
    or zero-length for a fresh prompt); ``k_new``/``v_new`` are the
    chunk's ``[batch, hkv, n, d]``.  Chunk queries see every context
    token plus their own causal prefix.  Returns ``[batch, n, hq, d]``.

    Scores are key-major, ``(b, hkv, keys, gq * n)``: the long key axis is
    BLAS's M (Sec. V-A's query transformation) and the softmax reduces
    over the outer axis of contiguous rows.  Those are the two GEMMs
    ``np.einsum(..., optimize=True)`` issues for the query-major formula,
    with the same operand layouts, and an outer-axis reduction keeps its
    left-to-right summation order (a last-axis sum is pairwise), so the
    bits equal that formula's (``tests/attn/test_prefill_attention.py``).
    """
    q = np.asarray(q, dtype=np.float32)
    k_new = np.asarray(k_new, dtype=np.float32)
    v_new = np.asarray(v_new, dtype=np.float32)
    batch, n, hq, d = q.shape
    hkv = k_new.shape[1]
    gq = hq // hkv
    cached = 0 if k_ctx is None else k_ctx.shape[2]
    if cached:
        k_all = np.concatenate([np.asarray(k_ctx, np.float32), k_new], axis=2)
        v_all = np.concatenate([np.asarray(v_ctx, np.float32), v_new], axis=2)
    else:
        k_all, v_all = k_new, v_new
    keys = cached + n
    # (b, n, hq, d) -> (b, hkv, d, gq * n): each head group's queries as
    # columns.  Like the einsum's operand, a C-contiguous copy unless gq
    # or n is 1, when it stays a strided view (BLAS bits follow layout).
    q_cols = q.reshape(batch, n, hkv, gq, d).transpose(0, 2, 4, 3, 1).reshape(
        batch, hkv, d, gq * n
    )
    s = k_all @ q_cols
    s *= 1.0 / math.sqrt(d)
    s = s.reshape(batch, hkv, keys, gq, n)
    if n > 1:
        # Causal within the chunk: new key j is hidden from query i < j.
        rows = np.arange(n)
        mask = np.where(rows[:, None] > rows, np.float32(-np.inf), np.float32(0))
        s[:, :, cached:] += mask[:, None, :]
    s -= s.max(axis=2, keepdims=True)
    p = np.exp(s, out=s)
    p /= p.sum(axis=2, keepdims=True)
    out = np.swapaxes(v_all, -1, -2) @ p.reshape(batch, hkv, keys, gq * n)
    # (b, hkv, d, gq, n) -> (b, n, hkv, gq, d) -> (b, n, hq, d)
    return out.reshape(batch, hkv, d, gq, n).transpose(0, 4, 1, 3, 2).reshape(batch, n, hq, d)
