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
from typing import Optional, Tuple

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


#: Bounds of OpenBLAS's small-matrix sgemm kernels (0.3.31, SkylakeX), which
#: compute straight from the operands without packing them: a call takes
#: them while ``M * N * K <= SMALL_GEMM_MNK`` and, for the transposed-A
#: ("TN") kernel, ``M * N <= SMALL_GEMM_OUTPUTS``.  Past either bound the
#: blocked kernel packs both operands on every call.  Measured on one
#: OpenBLAS thread of an Intel Xeon at decode shapes (gq = 4 query rows,
#: d = 128), the per-row cost triples across them: 14-16 ns per
#: ``K @ Q^T`` score row inside, ~40 ns past 300 rows; 10-13 ns per
#: ``P @ V`` token inside, ~30 ns past 1953 tokens.  :func:`qk_scores`
#: and :func:`pv_product` split decode products into calls inside them;
#: the transformer's projections stay *above* the output bound
#: (``model/transformer.py::_OUTPUT_FLOOR``).
SMALL_GEMM_OUTPUTS = 1200
SMALL_GEMM_MNK = 1_000_000


def qk_scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Scaled decode scores ``(q @ k^T) * scale``, computed as ``K_tile @ Q^T``.

    ``q`` is ``(..., M, d)`` FP32 and ``k`` ``(..., L, d)``; returns a
    C-contiguous ``(..., M, L)``.  A decode query block has a tiny M (the
    ``gq`` grouped rows), which underfills a host GEMM's register blocking
    the way it underfills a Tensor-Core tile — the problem Sec. V-A's query
    transformation solves on the GPU.  So the GEMM puts the long KV axis on
    the output's rows, ``K @ Q^T``, and walks it in tiles of at most
    ``SMALL_GEMM_OUTPUTS // M`` keys (``SMALL_GEMM_MNK`` permitting; 300
    at M = 4, d = 128): every call fits the small kernel and packs
    nothing, and at 4K context the tiles take about 0.6x the time of one
    whole-range GEMM (SkylakeX, one thread).  Each tile's scale writes it
    into its columns of one fresh C-order score array (no other
    full-length temporary), and that order is load-bearing: left
    transposed, the following ``p @ v`` takes another BLAS path and
    changes in the last bit.  A range within one tile, or an M past the
    output bound (no decode shape), is one call.

    A score is one length-``d`` dot product, computed by the same kernel
    whatever tile holds its row.  Past one tile its bits are not those of
    one whole-range ``Q @ K^T`` (the blocked kernel sums in another
    order); ``tests/core/test_qk_scores.py`` pins which properties hold,
    per OpenBLAS kernel set.
    """
    m, d = q.shape[-2:]
    length = k.shape[-2]
    rows = min(SMALL_GEMM_OUTPUTS // m, SMALL_GEMM_MNK // (m * d)) or max(length, 1)
    q_t = np.swapaxes(q, -1, -2)
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    scores = np.empty((*lead, m, length), dtype=np.result_type(q, k))
    for t0 in range(0, length, rows):
        tile = k[..., t0 : t0 + rows, :] @ q_t
        np.multiply(np.swapaxes(tile, -1, -2), scale, out=scores[..., t0 : t0 + rows])
    return scores


def pv_product(p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``p @ values`` over a long KV axis, in spans the small kernel takes.

    ``p`` is ``(..., M, L)`` and ``values`` ``(..., L, d)``.  The product
    is a left-to-right sum of ``P[:, span] @ V[span]`` over KV spans with
    ``M * d * span <= SMALL_GEMM_MNK`` (1953 tokens at M = 4, d = 128), so
    no call packs its operands; a range within one span is one call.
    """
    m, length = p.shape[-2:]
    span = SMALL_GEMM_MNK // (m * values.shape[-1]) or max(length, 1)
    acc = p[..., :span] @ values[..., :span, :]
    for t0 in range(span, length, span):
        acc += p[..., t0 : t0 + span] @ values[..., t0 : t0 + span, :]
    return acc


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
        the tiled update only by floating-point summation order.  The PV
        product is :func:`pv_product`, a left-to-right sum over KV spans
        the host's small GEMM kernel takes.  The state merges with other
        partial states (residual tail, split-KV) exactly like a tiled one.
        """
        scores = np.asarray(scores, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        m = scores.max(axis=-1)
        p = scores - np.where(np.isfinite(m), m, 0.0)[..., None]
        np.exp(p, out=p)
        return cls(m=m, l=p.sum(axis=-1), acc=pv_product(p, values))

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
