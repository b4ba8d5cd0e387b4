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
from repro.core.residual_kernel import _meta_bytes  # shared metadata math
from repro.core.softmax import (
    OnlineSoftmaxState,
    pad_tail,
    pv_product,
    qk_scores,
    tile_softmax_split,
)
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import (
    dequant_ops,
    p_requant_ops,
    rescale_accum_ops,
    softmax_ops,
)
from repro.gpu.kernel import (
    KernelLaunch,
    ResourceRates,
    _launch_seconds,
    _path_efficiency,
    _resource_times,
)
from repro.gpu.sm import Occupancy, occupancy
from repro.gpu.trace import AccessPattern, OpTrace
from repro.gpu.warp import WarpLayout, combined_hide_factor

#: Target resident blocks per SM when choosing the split-KV factor.
_SPLIT_TARGET_BLOCKS_PER_SM = 2

#: Documented tolerance of the fused decode walk (:func:`_run_fused`) vs
#: the seed per-tile online softmax kept in ``tests/reference_cache.py``,
#: as max |fused - seed| / max(1, max |seed|) per decode output.  Both
#: walks score with the same small-matrix BLAS kernel and quantize the
#: same probabilities (the FP4 path re-quantizes P against the per-tile
#: running maximum in either), so they differ only by fp32 summation
#: order: measured <= ~2e-6 on the integer paths and <= ~2e-7 on MXFP4
#: over a sweep of bits {1, 2, 4, 8}, both granularities and both FP4
#: formats, and <= ~1e-6 at 4K context.  ``tests/core/test_vectorized_cache.py``
#: enforces it and pins the cases that once broke a looser FP4 bound;
#: ``tests/core/test_qk_scores.py`` holds the integer walk to it against
#: the one-GEMM walk too.  One value per key; the e2e benchmark reads
#: ``"int"``.
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


def _split_kv_bytes(heads: int, n_splits: int, m_pad: int, d: int) -> Tuple[float, float]:
    """``(partial, output)`` bytes of a split-KV decode: past one split,
    every block writes its fp32 partial state (``d`` accumulators plus max
    and sum; 0.0 at one split), then the FP16 output."""
    partial = heads * n_splits * m_pad * (d + 2.0) * 4.0 if n_splits > 1 else 0.0
    return partial, heads * m_pad * d * 2.0


def split_kv_output(trace: OpTrace, heads: int, n_splits: int, m_pad: int, d: int) -> None:
    """Record a split-KV decode's output traffic: past one split, every block
    writes its fp32 partial state and a reduction kernel reads it back
    before the FP16 output is written (:func:`_split_kv_bytes`)."""
    partial, output = _split_kv_bytes(heads, n_splits, m_pad, d)
    if partial:
        trace.gmem_write(partial)
        trace.gmem_read(partial)  # reduction kernel
    trace.gmem_write(output)


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

    Every cooperative config (``use_coop_softmax`` or ``Wn == 1``) and
    every FP4 config takes :func:`_run_fused`: a QK^T over the entire
    packed range, run as KV-row tiles sized for the host's small GEMM
    kernel, and a two-pass softmax, with no per-``tile_n`` Python loop.
    The cooperative softmax (Algorithm 1) makes the tile walk equal to one
    softmax over the row, so tile boundaries change only the fp32
    summation order.  Only the deliberately broken non-cooperative
    integer ablation (``Wn > 1`` with ``use_coop_softmax=False``, Table
    III) depends on them — each warp's wrong local maximum lives inside a
    tile — so it walks ``tile_n``-wide tiles through
    :func:`~repro.core.softmax.tile_softmax_split`.  On the Blackwell
    native path the fused walk re-quantizes the probability tile to FP4
    before the PV product; that update never reads the cooperative flag,
    so FP4 has the one walk.

    Both walks compute QK^T through :func:`~repro.core.softmax.qk_scores`,
    which runs each GEMM as ``K_tile @ Q^T`` — the KV rows on one side of
    BLAS's small kernel, the grouped query rows on the other — and writes
    the scaled scores into one C-contiguous ``(..., M, L)`` array.
    """
    q_grouped = np.asarray(q_grouped, dtype=np.float32)
    k_hat = np.asarray(k_hat, dtype=np.float32)
    v_hat = np.asarray(v_hat, dtype=np.float32)
    if scale is None:
        scale = 1.0 / math.sqrt(q_grouped.shape[-1])

    wn = config.effective_wn
    if config.use_coop_softmax or wn == 1 or config.version == "fp4":
        return _run_fused(q_grouped, k_hat, v_hat, config, scale)

    state = OnlineSoftmaxState.fresh(
        q_grouped.shape[-2], v_hat.shape[-1], leading=q_grouped.shape[:-2]
    )
    seq_len = k_hat.shape[-2]
    for t0 in range(0, seq_len, config.tile_n):
        t1 = min(t0 + config.tile_n, seq_len)
        s = qk_scores(q_grouped, k_hat[..., t0:t1, :], scale)
        s, v_tile = pad_tail(s, v_hat[..., t0:t1, :], wn)
        tile_softmax_split(state, s, v_tile, wn, cooperative=False)
    return state


def _run_fused(
    q_grouped: np.ndarray,
    k_hat: np.ndarray,
    v_hat: np.ndarray,
    config: BitDecodingConfig,
    scale: float,
) -> OnlineSoftmaxState:
    """Fused tile walk: one QK^T + two-pass softmax over all tiles.

    The scores are :func:`~repro.core.softmax.qk_scores` over the entire
    packed range (``K_tile @ Q^T`` in tiles of at most
    ``SMALL_GEMM_OUTPUTS // M`` rows), and the PV product is
    :func:`~repro.core.softmax.pv_product` (KV spans of at most
    ``SMALL_GEMM_MNK // (M * d)`` tokens): every call stays inside
    OpenBLAS's small-matrix kernel, which a whole-range GEMM at 4K
    context leaves for the packing one at about three times the cost per
    row.  ``tests/reference_cache.py::one_gemm_run_fused`` keeps the walk
    as one GEMM each; the two differ only in fp32 summation order.

    On the FP4 path ``P`` is re-quantized before the PV product exactly
    as a per-tile online walk quantizes it: against the running maximum
    up to each ``tile_n``-wide tile (``np.maximum.accumulate`` over the
    tiles' maxima), so every micro-scaling block sees the same
    probabilities.  Each tile is then rescaled by ``exp(m_run - m_final)``
    — the correction the online walk applies step by step — and the PV
    product follows, so this and the seed per-tile walk
    (``tests/reference_cache.py``) differ only in summation order.  The
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
    return OnlineSoftmaxState(m=m, l=p_q.sum(axis=-1), acc=pv_product(p_q, v_hat))


# ---------------------------------------------------------------------------
# Trace builder
# ---------------------------------------------------------------------------


class PackingShape:
    """The parts of a Packing-Kernel launch that never read the packed length.

    Padded M, block count, warp layout, shared memory per block and the
    split target follow from the geometry's batch, heads, head dim and
    query length plus the config and device; so do the occupancy, hide
    factor and :class:`~repro.gpu.kernel.ResourceRates` at a given split
    count, which :meth:`at_splits` keeps per count.  A
    :class:`~repro.core.attention.BitDecoding` engine holds one shape per
    geometry class, so a pricing miss at a new length fills in only the
    tiles, splits and bytes, and :meth:`class_times_ms` prices a whole
    tile class of lengths in one array pass.
    """

    def __init__(self, geom: AttentionGeometry, config: BitDecodingConfig, arch: ArchSpec):
        self.config, self.arch = config, arch
        _, self.m_pad = gemm_m_dimension(geom.hq, geom.hkv, geom.q_len)
        self.heads = geom.batch * geom.hkv
        self.head_dim = geom.head_dim
        #: Config properties the build reads on every miss.
        self.wn, self.bits_per_value = config.effective_wn, config.storage_bits_per_value
        self.instruction_path = config.instruction_path
        self.warp_layout = WarpLayout(wm=config.wm, wn=config.effective_wn)
        self.smem_block = _smem_per_block(self.m_pad, geom.head_dim, config)
        self.split_target = _split_target(arch, geom)
        self._at_splits: Dict[int, Tuple[Occupancy, float, ResourceRates]] = {}

    def at_splits(self, n_splits: int) -> Tuple[Occupancy, float, ResourceRates]:
        """``(occupancy, hide factor, resource rates)`` of the launch at
        ``n_splits``."""
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
        known = self._at_splits[n_splits] = occ, hide, ResourceRates(self.arch, occ)
        return known

    def class_times_ms(self, packed_lens: np.ndarray) -> np.ndarray:
        """Unpaged Packing-launch ms at each of ``packed_lens``: positive
        int lengths of one tile class (equal ``ceil(len / tile_n)``).

        The class shares its split count, so one :meth:`at_splits` entry
        prices every length, and :func:`_packing_trace` plus the kernel
        model's own :func:`~repro.gpu.kernel._resource_times` and
        :func:`~repro.gpu.kernel._launch_seconds` run the float operations
        of :func:`build_packing_launch` then
        :func:`~repro.gpu.kernel.simulate_kernel` elementwise, in the same
        order: each value equals the scalar path's ``time_ms`` bit for bit.
        """
        tiles_per_head = -(-int(packed_lens[0]) // self.config.tile_n)
        n_splits = max(1, min(self.split_target, tiles_per_head))
        trace, _ = _packing_trace(self, packed_lens, n_splits, tiles_per_head, False, 64)
        occ, hide, rates = self.at_splits(n_splits)
        eff = _path_efficiency(self.arch, self.instruction_path)
        launches = 2 if n_splits > 1 else 1
        times = _resource_times(trace, rates)
        total, _, _ = _launch_seconds(self.arch, trace, occ, times, hide, eff, launches, np.maximum)
        return total * 1e3


def _packing_trace(
    shape: PackingShape,
    packed_len,
    n_splits: int,
    tiles_per_head: int,
    paged: bool,
    page_size: int,
) -> Tuple[OpTrace, Dict[str, OpTrace]]:
    """The Packing launch's trace and subtraces over ``packed_len`` packed
    tokens per head.

    ``packed_len`` is an int, or an int array of lengths that share
    ``tiles_per_head`` (and so ``n_splits``); every length-dependent count
    is then an array with one element per length.  The counts are plain
    arithmetic, so one formula serves both.  ``gmem_read`` and
    ``smem_traffic`` check their argument in a way no array passes, so
    their sums are written out here in the order they would accumulate
    them (the softmax's cooperative shared-memory term, merged with
    ``sm_ops``, before the staging traffic).
    """
    config, heads, m_pad, wn = shape.config, shape.heads, shape.m_pad, shape.wn
    d, tile_n = shape.head_dim, config.tile_n
    tiles = heads * tiles_per_head
    fp4 = config.version == "fp4"

    kv_values = heads * 2.0 * packed_len * d
    packed_bytes = kv_values * shape.bits_per_value / 8.0
    meta_bytes = _meta_bytes(heads, packed_len, d, config)
    q_bytes = heads * n_splits * m_pad * d * 2.0  # Q per block
    # Packed words (strided when paged) and the cp.async.ca metadata stream.
    pattern = AccessPattern.STRIDED if paged else AccessPattern.COALESCED
    read = packed_bytes + meta_bytes + q_bytes
    read_eff = packed_bytes / pattern.efficiency + meta_bytes + q_bytes
    if paged:
        # Page-table entries: one 8-byte entry per page per block.
        entries = heads * (packed_len / page_size) * 8.0
        read, read_eff = read + entries, read_eff + entries / AccessPattern.SCATTERED.efficiency
    # Split-KV output as split_kv_output records it: the partials are read
    # back by the reduction kernel (adding 0.0 at one split changes nothing).
    partial, output = _split_kv_bytes(heads, n_splits, m_pad, d)
    read, read_eff, write = read + partial, read_eff + partial, partial + output
    trace = OpTrace(
        gmem_read_bytes=read,
        gmem_write_bytes=write,
        gmem_read_bytes_effective=read_eff,
        gmem_write_bytes_effective=write,
        # Tensor-core GEMMs: QK^T + PV with the M dimension padded to the tile.
        tc_flops={"fp4" if fp4 else "fp16": heads * 2.0 * 2.0 * m_pad * packed_len * d},
        # Two __syncthreads per tile a block walks (no subtrace adds any).
        barriers_per_block=2.0 * -(-packed_len // (n_splits * tile_n)),
    )

    if fp4:
        dq_name, dq = "p_requant", p_requant_ops(heads * m_pad * packed_len)
    else:
        dq_name, dq = "dequant", dequant_ops(kv_values, config.bits, config.dequant_method)
    sm_ops = softmax_ops(heads * m_pad * packed_len, m_pad * tiles, wn)
    trace.merge(dq).merge(sm_ops)
    rescale_accum_ops(m_pad * d * tiles, trace)
    subtraces: Dict[str, OpTrace] = {dq_name: dq, "softmax": sm_ops}

    # Shared-memory staging: packed tiles in (cp.async) + ldmatrix out; the
    # cooperative softmax stages P through sAcc (write + ldmatrix back).
    staging = 2.0 * packed_bytes + 2.0 * meta_bytes
    if wn > 1 and config.use_coop_softmax:
        staging = staging + 2.0 * m_pad * tile_n * 2.0 * tiles
    if config.version == "v3":
        # STSM stores dequantized FP16 tiles for wgmma_SS consumption.
        staging = staging + 2.0 * (kv_values * 2.0)
    conflict = 1.0 if config.use_layout_induction else 4.0
    trace.smem_bytes = trace.smem_bytes + staging
    trace.smem_bytes_effective = trace.smem_bytes_effective + staging * conflict

    if not config.use_layout_induction:
        # Continuous-packing baseline: explicit per-tile layout transform
        # (unpack, permute through shared memory, repack) before the MMA.
        transform = OpTrace(
            alu_ops=2.0 * kv_values,
            smem_bytes=2.0 * kv_values,
            smem_bytes_effective=2.0 * kv_values * 4.0,
        )
        trace.merge(transform)
        subtraces["layout_transform"] = transform
    return trace, subtraces


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
    tiles_per_head = -(-packed_len // config.tile_n)
    if n_splits is None:
        n_splits = max(1, min(shape.split_target, tiles_per_head))
    trace, subtraces = _packing_trace(shape, packed_len, n_splits, tiles_per_head, paged, page_size)
    occ, hide, rates = shape.at_splits(n_splits)
    # Positional, in field order: keyword matching twelve fields would cost
    # as much as the construction itself, once per pricing miss.
    return KernelLaunch(
        "packing_kernel",
        trace,
        shape.heads * n_splits,  # grid blocks
        shape.warp_layout.warps_per_block,
        shape.smem_block,
        64,  # registers per thread
        occ,
        rates,
        hide,
        shape.instruction_path,
        2 if n_splits > 1 else 1,  # host launches: split-KV adds the reduction
        subtraces,
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
