"""The Packing Kernel: fused dequantization + attention (Sec. V-C).

This is BitDecoding's main decode kernel.  Per (batch, kv-head, split) block
it streams packed KV tiles through shared memory (``cp.async`` on
SM80/SM89, TMA on Hopper), dequantizes on CUDA cores (lop3 fast path),
feeds Tensor-Core MMAs, and runs the multi-warp cooperative softmax.
The software pipeline overlaps the ``(i+1)``-th tile's load + dequant with
the ``i``-th tile's MMA (Fig. 7 right).

Implemented as the rest of the reproduction: real numerics over the packed
cache (including genuinely-wrong results when the cooperative softmax is
ablated with ``Wn > 1``), and an analytic trace builder for the performance
model that mirrors the same per-tile work.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.query_transform import gemm_m_dimension
from repro.core.quantization import quantize_fp4
from repro.core.softmax import OnlineSoftmaxState, pad_tail, qk_scores, tile_softmax_split
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import (
    dequant_ops,
    p_requant_ops,
    rescale_accum_ops,
    softmax_ops,
)
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import Occupancy, occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import WarpLayout, combined_hide_factor

#: Target resident blocks per SM when choosing the split-KV factor.
_SPLIT_TARGET_BLOCKS_PER_SM = 2

#: Documented tolerance of the ``fused`` numerics mode vs ``exact_tiled``,
#: as max |fused - tiled| / max(1, max |tiled|) per decode output.  Both
#: modes quantize the same probabilities (the FP4 path re-quantizes P
#: against the per-tile running maximum in either), so they differ only by
#: fp32 summation order: measured <= ~2e-6 on the integer paths and
#: <= ~2e-7 on MXFP4 over a sweep of bits {1, 2, 4, 8}, both granularities
#: and both FP4 formats.  ``tests/core/test_vectorized_cache.py`` enforces
#: it as the dual-mode contract and pins the cases that once broke a
#: looser FP4 bound.  One value per key; the e2e benchmark reads ``"int"``.
FUSED_NUMERICS_TOLERANCE = {"int": 1e-5, "fp4": 1e-5}


def _split_target(arch: ArchSpec, geom: AttentionGeometry) -> int:
    """Splits that would fill the machine, before capping at the tile count."""
    target = _SPLIT_TARGET_BLOCKS_PER_SM * arch.sm_count
    return max(1, target // max(geom.batch * geom.hkv, 1))


def choose_splits(
    arch: ArchSpec, geom: AttentionGeometry, tile_n: int, seq_len: Optional[int] = None
) -> int:
    """FlashDecoding split-KV heuristic: fill the machine at small batch.

    With ``batch * hkv`` blocks already saturating the SMs no split is
    needed; at batch 1 the sequence is partitioned so enough blocks exist
    to reach peak memory bandwidth.
    """
    seq_len = geom.seq_len if seq_len is None else seq_len
    tiles = max(1, math.ceil(seq_len / tile_n))
    return max(1, min(_split_target(arch, geom), tiles))


def split_kv_output(trace: OpTrace, heads: int, n_splits: int, m_pad: int, d: int) -> None:
    """Record a split-KV decode's output traffic: past one split, every block
    writes its fp32 partial state (``d`` accumulators plus max and sum) and
    a reduction kernel reads it back before the FP16 output is written."""
    if n_splits > 1:
        partial_bytes = heads * n_splits * m_pad * (d + 2.0) * 4.0
        trace.gmem_write(partial_bytes)
        trace.gmem_read(partial_bytes)  # reduction kernel
    trace.gmem_write(heads * m_pad * d * 2.0)


# ---------------------------------------------------------------------------
# Numerics
# ---------------------------------------------------------------------------


def run_numeric(
    q_grouped: np.ndarray,
    k_hat: np.ndarray,
    v_hat: np.ndarray,
    config: BitDecodingConfig,
    scale: Optional[float] = None,
) -> OnlineSoftmaxState:
    """Attention of grouped queries over dequantized packed KV rows.

    ``q_grouped``: ``(..., M, d)``; ``k_hat``/``v_hat``: ``(..., L_pack, d)``
    *reconstructed* values (the cache object performs the real
    unpack+dequant; see :class:`repro.core.attention.BitKVCache`).  Leading
    dims are independent (batch, kv-head) problems — the vectorized cache
    passes ``[batch, hkv, ...]`` tensors so the whole decode batch walks
    each tile in one numpy update, with no per-head Python loop.

    Two numerics modes (``config.numerics_mode``):

    - ``fused`` (default): one batched QK^T over the entire packed range
      followed by a two-pass softmax — no Python tile loop at all.  Fusing
      changes BLAS summation order, so the result is *tolerance*-equal to
      the tiled walk, not bit-equal (see
      ``tests/core/test_vectorized_cache.py`` for the dual-mode contract).
    - ``exact_tiled``: walks the same ``tile_n``-wide tiles as the GPU
      kernel through the online softmax, bit-identical to the seed
      implementation.

    Both modes compute QK^T through :func:`~repro.core.softmax.qk_scores`,
    which runs the GEMM as ``K @ Q^T`` — the KV axis on BLAS's M, the grouped
    query rows on N — and copies the scores back to C-contiguous
    ``(..., M, L)``.  The scores are bitwise those of ``Q @ K^T``; the
    orientation only stops a tiny M from underfilling the host GEMM.

    The deliberately non-cooperative softmax ablation (``Wn > 1`` with
    ``use_coop_softmax=False``) is tile-structured by definition — each
    warp's wrong local maximum lives inside a tile — so it always takes
    the tiled walk regardless of mode.  On the Blackwell native path the
    probability tile is re-quantized to FP4 before the PV product,
    reproducing that path's extra numeric error in both modes.
    """
    q_grouped = np.asarray(q_grouped, dtype=np.float32)
    k_hat = np.asarray(k_hat, dtype=np.float32)
    v_hat = np.asarray(v_hat, dtype=np.float32)
    if scale is None:
        scale = 1.0 / math.sqrt(q_grouped.shape[-1])

    coop = config.use_coop_softmax or config.effective_wn == 1
    if config.numerics_mode == "fused" and coop:
        return _run_fused(q_grouped, k_hat, v_hat, config, scale)

    state = OnlineSoftmaxState.fresh(
        q_grouped.shape[-2], v_hat.shape[-1], leading=q_grouped.shape[:-2]
    )
    seq_len = k_hat.shape[-2]
    wn = config.effective_wn
    for t0 in range(0, seq_len, config.tile_n):
        t1 = min(t0 + config.tile_n, seq_len)
        s = qk_scores(q_grouped, k_hat[..., t0:t1, :], scale)
        s, v_tile = pad_tail(s, v_hat[..., t0:t1, :], wn)
        if config.version == "fp4":
            state_update_fp4(state, s, v_tile, config)
        else:
            tile_softmax_split(state, s, v_tile, wn, cooperative=config.use_coop_softmax)
    return state


def _run_fused(
    q_grouped: np.ndarray,
    k_hat: np.ndarray,
    v_hat: np.ndarray,
    config: BitDecodingConfig,
    scale: float,
) -> OnlineSoftmaxState:
    """Fused tile walk: one QK^T GEMM + two-pass softmax over all tiles.

    The one GEMM is :func:`~repro.core.softmax.qk_scores` over the entire
    packed range: ``k_hat @ q^T`` with the whole packed length as M (an
    M = ``gq`` GEMM per head is about twice as slow on the host at 4K
    context), made C-contiguous before the softmax so the PV product's
    BLAS path — and so every output bit — is unchanged.

    On the FP4 path ``P`` is re-quantized before the PV product exactly
    as the tiled walk quantizes it: against the running maximum up to
    each ``tile_n``-wide tile (``np.maximum.accumulate`` over the tiles'
    maxima), so every micro-scaling block sees the same probabilities.
    Each tile is then rescaled by ``exp(m_run - m_final)`` — the
    correction the tiled walk applies step by step — and one PV GEMM
    follows, so fused and tiled FP4 differ only in summation order.  The
    tail tile is padded with ``-inf`` scores and zero value rows.
    """
    s = qk_scores(q_grouped, k_hat, scale)
    if config.version != "fp4":
        return OnlineSoftmaxState.from_scores(s, v_hat)

    s, v_hat = pad_tail(s, v_hat, config.tile_n)
    tiles = s.reshape(*s.shape[:-1], -1, config.tile_n)
    m_run = np.maximum.accumulate(tiles.max(axis=-1), axis=-1)
    m = m_run[..., -1]
    p = np.exp(tiles - np.where(np.isfinite(m_run), m_run, 0.0)[..., None])
    p_q, _ = quantize_fp4(p, config.fp4_format, axis=-1)
    correction = np.exp(m_run - np.where(np.isfinite(m), m, 0.0)[..., None])  # 0 at -inf
    p_q = (p_q * correction[..., None]).reshape(s.shape)
    return OnlineSoftmaxState(m=m, l=p_q.sum(axis=-1), acc=p_q @ np.asarray(v_hat, np.float32))


def state_update_fp4(
    state: OnlineSoftmaxState,
    scores: np.ndarray,
    values: np.ndarray,
    config: BitDecodingConfig,
) -> None:
    """Tile update on the Blackwell native-FP4 path.

    ``P = exp(S - m)`` is quantized to the micro-scaling FP4 format before
    the second MMA (``O = Quant(P) V``, Sec. III-B Challenge 2); values are
    already FP4-representable.  P rows lie in [0, 1], so a block of 16/32
    probabilities shares one scale.
    """
    scores = np.asarray(scores, dtype=np.float32)
    tile_max = scores.max(axis=-1)
    m_new = np.maximum(state.m, tile_max)
    correction = np.where(np.isfinite(state.m), np.exp(state.m - m_new), 0.0)
    p = np.exp(scores - m_new[..., None])
    p_q, _ = quantize_fp4(p, config.fp4_format, axis=-1)
    state.l = state.l * correction + p_q.sum(axis=-1)
    state.acc = state.acc * correction[..., None] + p_q @ np.asarray(values, np.float32)
    state.m = m_new


# ---------------------------------------------------------------------------
# Trace builder
# ---------------------------------------------------------------------------


class PackingShape:
    """The parts of a Packing-Kernel launch that never read the packed length.

    Padded M, block count, warp layout, shared memory per block and the
    split target follow from the geometry's batch, heads, head dim and
    query length plus the config and device; so do the occupancy and hide
    factor at a given split count, which :meth:`at_splits` keeps per count.
    A :class:`~repro.core.attention.BitDecoding` engine holds one shape per
    geometry class, so a pricing miss at a new length fills in only the
    tiles, splits and bytes.
    """

    def __init__(self, geom: AttentionGeometry, config: BitDecodingConfig, arch: ArchSpec):
        self.config, self.arch = config, arch
        _, self.m_pad = gemm_m_dimension(geom.hq, geom.hkv, geom.q_len)
        self.heads = geom.batch * geom.hkv
        self.warp_layout = WarpLayout(wm=config.wm, wn=config.effective_wn)
        self.smem_block = _smem_per_block(self.m_pad, geom.head_dim, config)
        self.split_target = _split_target(arch, geom)
        self._at_splits: Dict[int, Tuple[Occupancy, float]] = {}

    def at_splits(self, n_splits: int) -> Tuple[Occupancy, float]:
        """``(occupancy, hide factor)`` of the launch at ``n_splits``."""
        known = self._at_splits.get(n_splits)
        if known is not None:
            return known
        config, layout = self.config, self.warp_layout
        occ = occupancy(self.arch, self.heads * n_splits, layout.warps_per_block, self.smem_block)
        hide = combined_hide_factor(
            layout,
            inflight_warps_per_sm=occ.blocks_per_sm * layout.warps_per_block,
            pipelined=config.use_pipeline,
        )
        if config.version == "v3":
            # Warp-specialized producer/consumer scheduling (FA-3 style) hides
            # residual exposure beyond what the SM80 pipeline reaches.
            hide = min(1.0, hide + 0.15)
        if not config.use_layout_induction:
            hide = min(hide, 0.3)
        self._at_splits[n_splits] = occ, hide
        return occ, hide


def build_packing_launch(
    geom: AttentionGeometry,
    config: BitDecodingConfig,
    arch: ArchSpec,
    packed_len: Optional[int] = None,
    n_splits: Optional[int] = None,
    paged: bool = False,
    page_size: int = 64,
    shape: Optional[PackingShape] = None,
) -> KernelLaunch:
    """Performance trace of the Packing Kernel over the packed cache.

    ``packed_len`` defaults to the geometry's full sequence (the common
    benchmark situation where the residual is negligible).  ``paged`` adds
    page-table lookups and the slightly reduced coalescing of paged layouts.
    ``shape`` is the geometry's :class:`PackingShape` when the caller keeps
    one (built here otherwise); it must come from the same config and arch.
    """
    if packed_len is None:
        packed_len = geom.seq_len
    if packed_len <= 0:
        raise ValueError("packed_len must be positive")
    if shape is None:
        shape = PackingShape(geom, config, arch)
    d = geom.head_dim
    m_pad, heads = shape.m_pad, shape.heads
    tiles_per_head = math.ceil(packed_len / config.tile_n)
    if n_splits is None:
        n_splits = max(1, min(shape.split_target, tiles_per_head))
    tiles = heads * tiles_per_head

    bits_per_value = config.storage_bits_per_value
    kv_values = heads * 2.0 * packed_len * d
    packed_bytes = kv_values * bits_per_value / 8.0
    from repro.core.residual_kernel import _meta_bytes  # shared metadata math

    meta_bytes = _meta_bytes(heads, packed_len, d, config)

    trace = OpTrace()
    pattern = AccessPattern.STRIDED if paged else AccessPattern.COALESCED
    trace.gmem_read(packed_bytes, pattern)
    trace.gmem_read(meta_bytes)  # cp.async.ca fine-grained metadata stream
    trace.gmem_read(heads * n_splits * m_pad * d * 2.0)  # Q per block
    if paged:
        # Page-table entries: one 8-byte entry per page per block.
        trace.gmem_read(heads * (packed_len / page_size) * 8.0, AccessPattern.SCATTERED)
    split_kv_output(trace, heads, n_splits, m_pad, d)

    # Tensor-core GEMMs: QK^T + PV with the M dimension padded to the tile.
    tc_precision = "fp4" if config.version == "fp4" else "fp16"
    trace.tensor_core(heads * 2.0 * 2.0 * m_pad * packed_len * d, tc_precision)

    subtraces: Dict[str, OpTrace] = {}
    if config.version == "fp4":
        requant = p_requant_ops(heads * m_pad * packed_len)
        trace.merge(requant)
        subtraces["p_requant"] = requant
    else:
        dq = dequant_ops(kv_values, config.bits, config.dequant_method)
        trace.merge(dq)
        subtraces["dequant"] = dq

    sm_ops = softmax_ops(heads * m_pad * packed_len, m_pad * tiles, config.effective_wn)
    trace.merge(sm_ops)
    subtraces["softmax"] = sm_ops
    trace.merge(rescale_accum_ops(m_pad * d * tiles))

    # Shared-memory staging: packed tiles in (cp.async) + ldmatrix out; the
    # cooperative softmax stages P through sAcc (write + ldmatrix back).
    smem_traffic = 2.0 * packed_bytes + 2.0 * meta_bytes
    if config.effective_wn > 1 and config.use_coop_softmax:
        smem_traffic += 2.0 * m_pad * config.tile_n * 2.0 * tiles
    if config.version == "v3":
        # STSM stores dequantized FP16 tiles for wgmma_SS consumption.
        smem_traffic += 2.0 * (kv_values * 2.0)
    conflict = 1.0 if config.use_layout_induction else 4.0
    trace.smem_traffic(smem_traffic, conflict_factor=conflict)

    if not config.use_layout_induction:
        # Continuous-packing baseline: explicit per-tile layout transform
        # (unpack, permute through shared memory, repack) before the MMA.
        transform = OpTrace()
        transform.alu_ops += 2.0 * kv_values
        transform.smem_traffic(2.0 * kv_values, conflict_factor=4.0)
        trace.merge(transform)
        subtraces["layout_transform"] = transform

    trace.barriers_per_block += 2.0 * math.ceil(packed_len / (n_splits * config.tile_n))

    occ, hide = shape.at_splits(n_splits)
    return KernelLaunch(
        name="packing_kernel",
        trace=trace,
        grid_blocks=heads * n_splits,
        warps_per_block=shape.warp_layout.warps_per_block,
        smem_per_block_bytes=shape.smem_block,
        occupancy=occ,
        hide_factor=hide,
        instruction_path=config.instruction_path,
        launches=2 if n_splits > 1 else 1,
        subtraces=subtraces,
    )


def _smem_per_block(m_pad: int, d: int, config: BitDecodingConfig) -> int:
    """Shared-memory footprint of one Packing-Kernel block."""
    packed_tile = 2 * config.tile_n * d * config.storage_bits_per_value / 8.0
    buffers = 2.0 if config.use_pipeline else 1.0  # double buffering
    q_tile = m_pad * d * 2.0
    s_acc = m_pad * config.tile_n * 2.0 if config.effective_wn > 1 else 0.0
    v3_stage = 2 * config.tile_n * d * 2.0 if config.version == "v3" else 0.0
    meta = 2048.0
    return int(packed_tile * buffers + q_tile + s_acc + v3_stage + meta)
