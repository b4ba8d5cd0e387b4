"""Query transformation for attention variants (paper Sec. V-A).

During decode the query has length 1, so a naive ``Q @ K^T`` per query head
is a GEMV that underfills Tensor-Core tiles.  Modern models share each KV
head across ``g_q = h_q / h_kv`` query heads (GQA/MQA); BitDecoding reshapes
the query from ``[q_len, (g_q, h_kv)]`` to ``[g_q, h_kv]`` so that the
``g_q`` grouped query heads form the M dimension of one larger GEMM against
their shared KV head — without changing attention semantics.

The transform is a pure reshape/transpose; :func:`ungroup_output` is its
exact inverse on the attention output.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def group_queries(q: np.ndarray, hkv: int) -> np.ndarray:
    """Reshape decode queries ``[batch, q_len, hq, d]`` to grouped form.

    Returns ``[batch, hkv, q_len * gq, d]``: for every KV head, the
    ``q_len * gq`` rows that attend against it, stacked as a GEMM M
    dimension.  Query head ``h`` attends to KV head ``h // gq`` (the
    standard GQA convention: consecutive query heads share a KV head).
    """
    q = np.asarray(q)
    if q.ndim != 4:
        raise ValueError(f"expected q of rank 4 [batch, q_len, hq, d], got {q.shape}")
    batch, q_len, hq, d = q.shape
    if hq % hkv != 0:
        raise ValueError(f"hq ({hq}) must be a multiple of hkv ({hkv})")
    gq = hq // hkv
    # [b, q_len, hkv, gq, d] -> [b, hkv, q_len, gq, d] -> [b, hkv, q_len*gq, d]
    grouped = q.reshape(batch, q_len, hkv, gq, d)
    grouped = grouped.transpose(0, 2, 1, 3, 4)
    return grouped.reshape(batch, hkv, q_len * gq, d)


def ungroup_output(out: np.ndarray, hq: int, q_len: int = 1) -> np.ndarray:
    """Inverse transform: ``[batch, hkv, q_len*gq, d] -> [batch, q_len, hq, d]``."""
    out = np.asarray(out)
    if out.ndim != 4:
        raise ValueError(f"expected grouped output of rank 4 [batch, hkv, m, d], got {out.shape}")
    batch, hkv, m, d = out.shape
    if hq % hkv != 0:
        raise ValueError(f"hq ({hq}) must be a multiple of hkv ({hkv})")
    gq = hq // hkv
    if m != q_len * gq:
        raise ValueError(f"grouped M ({m}) != q_len*gq ({q_len * gq})")
    restored = out.reshape(batch, hkv, q_len, gq, d)
    restored = restored.transpose(0, 2, 1, 3, 4)
    return restored.reshape(batch, q_len, hkv * gq, d)


def gemm_m_dimension(hq: int, hkv: int, q_len: int = 1) -> Tuple[int, int]:
    """(effective M, padded M) of the grouped GEMM.

    M pads to the MMA tile granularity (16 rows for ``mma.m16n8k16``);
    padding rows are zero work semantically but occupy the fragment, so
    kernels account tile-padded FLOPs.
    """
    if hq % hkv != 0:
        raise ValueError(f"hq ({hq}) must be a multiple of hkv ({hkv})")
    m = (hq // hkv) * q_len
    padded = ((m + 15) // 16) * 16
    return m, padded
