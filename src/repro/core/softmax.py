"""Online softmax and the multi-warp cooperative softmax (Algorithm 1).

FlashAttention keeps, per query row, a running maximum ``m``, a running
denominator ``l`` and an unnormalized accumulator ``O``; each KV tile
updates the three.  BitDecoding's wide warp layout (``Wn > 1``) splits every
score tile across warps along N, so the row maximum is no longer visible to
a single warp: Algorithm 1 adds a cross-warp reduction through the shared
``sTMP`` buffer, and stages ``P`` through ``sAcc`` so the PV MMA reads a
layout-aligned tile.

Omitting the cross-warp reduction while keeping ``Wn > 1`` is *numerically
wrong* — each warp exponentiates against its own local maximum, so the
staged ``P`` mixes incompatible scales.  Table III shows exactly this
(``Valid = x``); :func:`tile_softmax_split` reproduces both behaviours so
the benchmark can demonstrate the invalidity rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


def reference_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: Optional[float] = None
) -> np.ndarray:
    """Dense single-head attention ``softmax(q k^T / sqrt(d)) v`` in FP32."""
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    s = (q @ k.T) * scale
    s = s - s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p = p / p.sum(axis=-1, keepdims=True)
    return p @ v


def qk_scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Scaled decode scores ``(q @ k^T) * scale``, the KV axis as BLAS's M.

    ``q`` is ``(..., M, d)`` FP32 and ``k`` ``(..., L, d)``; returns a
    C-contiguous ``(..., M, L)``.  A decode query block has a tiny M (the
    ``gq`` grouped rows), which underfills a host GEMM's register blocking
    the way it underfills a Tensor-Core tile — the problem Sec. V-A's query
    transformation solves on the GPU.  Computing ``k @ q^T`` instead puts
    the long KV axis on M (about 2x faster at M=4, L=3840, d=128, one
    OpenBLAS thread) and gives bitwise-equal scores, each the same
    length-``d`` dot product; ``tests/core/test_qk_scores.py`` pins that
    property over decode shapes.  The copy back to C order is load-bearing:
    left transposed, the following ``p @ v`` takes another BLAS path and
    changes in the last bit.
    """
    return np.ascontiguousarray(np.swapaxes(k @ np.swapaxes(q, -1, -2), -1, -2)) * scale


@dataclass
class OnlineSoftmaxState:
    """Per-row running state of the flash-style online softmax.

    ``m``: running maxima ``(..., M)``; ``l``: running denominators
    ``(..., M)``; ``acc``: unnormalized output accumulator ``(..., M, d)``.
    The leading ``...`` dims (if any) are independent problems — the
    vectorized cache runs every ``(batch, kv-head)`` pair through one state.
    """

    m: np.ndarray
    l: np.ndarray
    acc: np.ndarray

    @classmethod
    def fresh(
        cls, n_rows: int, head_dim: int, leading: Tuple[int, ...] = ()
    ) -> "OnlineSoftmaxState":
        return cls(
            m=np.full((*leading, n_rows), -np.inf, dtype=np.float32),
            l=np.zeros((*leading, n_rows), dtype=np.float32),
            acc=np.zeros((*leading, n_rows, head_dim), dtype=np.float32),
        )

    @classmethod
    def from_scores(cls, scores: np.ndarray, values: np.ndarray) -> "OnlineSoftmaxState":
        """Two-pass (fused) softmax over a *complete* score matrix.

        ``scores`` is ``(..., M, L)`` for the whole KV range and ``values``
        ``(..., L, d)``: the row maximum is taken once over all of L, so no
        online rescaling ever happens.  The resulting ``m`` is identical to
        what a tile walk would converge to; ``l`` and ``acc`` differ from
        the tiled update only by floating-point summation order.  The state
        merges with other partial states (residual tail, split-KV) exactly
        like a tiled one.
        """
        scores = np.asarray(scores, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        m = scores.max(axis=-1)
        p = np.exp(scores - np.where(np.isfinite(m), m, 0.0)[..., None])
        return cls(m=m, l=p.sum(axis=-1), acc=p @ values)

    def update(self, scores: np.ndarray, values: np.ndarray) -> None:
        """Fold one tile: ``scores`` is ``(..., M, Tn)``, ``values`` ``(..., Tn, d)``."""
        scores = np.asarray(scores, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        tile_max = scores.max(axis=-1)
        m_new = np.maximum(self.m, tile_max)
        correction = np.exp(self.m - m_new)
        correction = np.where(np.isfinite(correction), correction, 0.0)
        p = np.exp(scores - m_new[..., None])
        self.l = self.l * correction + p.sum(axis=-1)
        self.acc = self.acc * correction[..., None] + p @ values
        self.m = m_new

    def merge(self, other: "OnlineSoftmaxState") -> None:
        """Combine two partial states (split-KV reduction kernel)."""
        m_new = np.maximum(self.m, other.m)
        c_self = np.where(np.isfinite(self.m), np.exp(self.m - m_new), 0.0)
        c_other = np.where(np.isfinite(other.m), np.exp(other.m - m_new), 0.0)
        self.l = self.l * c_self + other.l * c_other
        self.acc = self.acc * c_self[..., None] + other.acc * c_other[..., None]
        self.m = m_new

    def finalize(self) -> np.ndarray:
        """Normalized attention output ``(..., M, d)``."""
        if np.any(self.l <= 0):
            raise ValueError("finalize called with empty softmax state")
        return self.acc / self.l[..., None]


def pad_tail(
    scores: np.ndarray, values: np.ndarray, multiple: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pad a score tile's last columns (``-inf``) and value rows (zeros).

    Real kernels pad tail tiles to their alignment unit — the warp split
    in the tiled walk, the micro-scaling block on the fused FP4 path.
    ``-inf`` scores contribute nothing to the softmax and zero rows
    nothing to PV, so padding never changes the result.  Returns the
    inputs unchanged when already aligned.
    """
    remainder = scores.shape[-1] % multiple
    if not remainder:
        return scores, values
    pad = multiple - remainder
    scores = np.concatenate(
        [scores, np.full((*scores.shape[:-1], pad), -np.inf, dtype=scores.dtype)], axis=-1
    )
    values = np.concatenate(
        [values, np.zeros((*values.shape[:-2], pad, values.shape[-1]), dtype=values.dtype)],
        axis=-2,
    )
    return scores, values


def tile_softmax_split(
    state: OnlineSoftmaxState,
    scores: np.ndarray,
    values: np.ndarray,
    wn: int,
    cooperative: bool = True,
) -> None:
    """Update ``state`` with a tile processed by ``wn`` warps along N.

    Models Algorithm 1 at warp granularity.  ``scores`` is ``(..., M, Tn)``
    and ``values`` ``(..., Tn, d)``; any leading dims are independent
    (batch, kv-head) problems updated in one shot.  The N axis of
    ``scores`` is partitioned into ``wn`` contiguous warp slices:

    - ``cooperative=True``: warps exchange local row maxima through the
      shared ``sTMP`` buffer before exponentiating; ``P`` slices staged in
      ``sAcc`` then share one scale and the PV accumulation is exact (up to
      float rounding) — equivalent to a single-warp update.
    - ``cooperative=False`` with ``wn > 1``: each warp uses its *own* local
      maximum (the missing synchronization of Table III); the staged ``P``
      mixes scales and the result is wrong whenever warp maxima differ.
    """
    scores = np.asarray(scores, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    n = scores.shape[-1]
    if n % wn != 0:
        raise ValueError(f"tile N ({n}) must divide evenly over wn ({wn}) warps")
    slice_n = n // wn
    slices = [slice(w * slice_n, (w + 1) * slice_n) for w in range(wn)]

    local_max = np.stack([scores[..., s].max(axis=-1) for s in slices], axis=0)

    if cooperative or wn == 1:
        # sTMP cross-warp reduction: every warp sees the true tile max.
        tile_max = local_max.max(axis=0)
        m_new = np.maximum(state.m, tile_max)
        correction = np.where(np.isfinite(state.m), np.exp(state.m - m_new), 0.0)
        s_acc = np.empty_like(scores)
        for w, s in enumerate(slices):
            s_acc[..., s] = np.exp(scores[..., s] - m_new[..., None])  # staged P
        state.l = state.l * correction + s_acc.sum(axis=-1)
        state.acc = state.acc * correction[..., None] + s_acc @ values
        state.m = m_new
        return

    # Broken path: each warp exponentiates against its own local max and
    # writes into sAcc; the PV MMA and the running state then treat the
    # mixed-scale tile as if it had one max (the first warp's).  A warp
    # whose slice is entirely padding (-inf) uses 0 as its max, as the
    # in-register code would after an identity-initialized reduction.
    safe_max = np.where(np.isfinite(local_max), local_max, 0.0)
    assumed_max = safe_max[0]
    m_new = np.maximum(state.m, assumed_max)
    correction = np.where(np.isfinite(state.m), np.exp(state.m - m_new), 0.0)
    s_acc = np.empty_like(scores)
    for w, s in enumerate(slices):
        s_acc[..., s] = np.exp(scores[..., s] - safe_max[w][..., None])
    state.l = state.l * correction + s_acc.sum(axis=-1)
    state.acc = state.acc * correction[..., None] + s_acc @ values
    state.m = m_new


def split_kv_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_splits: int,
    tile_n: int = 128,
    scale: Optional[float] = None,
) -> np.ndarray:
    """FlashDecoding-style split-KV attention (numerics reference).

    The KV sequence is divided into ``n_splits`` partitions processed with
    independent online-softmax states (separate thread blocks on GPU), then
    merged by the reduction kernel (:meth:`OnlineSoftmaxState.merge`).
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    seq_len = k.shape[0]
    n_splits = max(1, min(n_splits, seq_len))
    bounds = np.linspace(0, seq_len, n_splits + 1, dtype=np.int64)

    partials: List[OnlineSoftmaxState] = []
    for i in range(n_splits):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if lo == hi:
            continue
        st = OnlineSoftmaxState.fresh(q.shape[0], v.shape[-1])
        for t0 in range(lo, hi, tile_n):
            t1 = min(t0 + tile_n, hi)
            s = (q @ k[t0:t1].T) * scale
            st.update(s, v[t0:t1])
        partials.append(st)

    out = partials[0]
    for st in partials[1:]:
        out.merge(st)
    return out.finalize()
