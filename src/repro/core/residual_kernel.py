"""The Residual Kernel: fused compute + quantization + packing (Sec. V-B).

Per decode step the kernel (i) computes attention over the FP16 residual
KV cache and (ii) — on the step where the residual fills to ``N_r`` — fuses
quantization and packing of the completed block into the low-bit cache,
entirely in registers:

- thread-level min/max for the group statistics, reduced across the warp
  with ``__shfl_xor_sync`` butterflies (plus a small shared buffer when
  ``W_n > 1``),
- in-register affine quantization,
- thread-local packing in *fragment order* (layout induction, Fig. 5), so
  the stored words are already what the Packing Kernel's ``ldmatrix``
  expects.

Numerics here are bit-exact: :func:`flush_blocks` really quantizes and
packs through the fragment permutation; the Packing Kernel really unpacks
the words.  Trace builders mirror the same work for the performance model.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.layouts import (
    MMA_M16N8K16_B,
    FragmentLayout,
    _block_fragment_indices,
    block_fragment_offsets,
    tiled_layout,
)
from repro.core.packing import _word_dtype, gather_pack_into, unpack_values
from repro.core.quantization import (
    Fp4Params,
    QuantParams,
    _quantize_chunk,
    dequantize,
    quantize_fp4,
)
from repro.core.query_transform import gemm_m_dimension
from repro.core.softmax import OnlineSoftmaxState, pad_tail, qk_scores, tile_softmax_split
from repro.gpu.arch import ArchSpec
from repro.gpu.instructions import quant_pack_ops, rescale_accum_ops, softmax_ops
from repro.gpu.kernel import KernelLaunch
from repro.gpu.trace import OpTrace
from repro.gpu.warp import WarpLayout, memory_hide_factor


def _kv_fragment_layout(config: BitDecodingConfig) -> FragmentLayout:
    """Fragment layout (with N-repeat) whose lane load fills whole words.

    A lane of ``mma.m16n8k16.B`` holds 4 values; bit widths whose packing
    ratio exceeds 4 need repeat tiling along N (Fig. 3a) so each lane packs
    complete words.
    """
    base = MMA_M16N8K16_B
    ratio = config.packing_ratio
    repeat = max(1, math.ceil(ratio / base.values_per_lane))
    return tiled_layout(base, repeat) if repeat > 1 else base


# ---------------------------------------------------------------------------
# Batched struct-of-arrays storage (the vectorized two-part cache)
# ---------------------------------------------------------------------------


#: Per-chunk working-set budget of the chunked flush and the chunked
#: dequant, in K-or-V values.  A chunk touches ~9 bytes per value across
#: its buffers (fp16 source, fp32 affine, uint8 codes, word output +
#: scratch; or words, unpacked fields and codes); 512k values keeps that
#: a few MiB — inside the last-level cache on anything current — so the
#: passes stream from cache instead of DRAM, and no temporary grows with
#: the context.
_CHUNK_VALUES = 512 * 1024


def reserve(buf: Optional[np.ndarray], used: int, shape: Tuple[int, ...], dtype=np.float32):
    """A buffer for ``shape`` whose axis 2 may run past ``shape[2]``.

    Returns ``buf`` itself when its axis 2 already holds ``shape[2]``
    entries.  Otherwise allocates a fresh ``np.empty`` buffer with an
    eighth more (plus one) on axis 2 and copies ``buf[:, :, :used]`` into
    it.  Callers append past ``used`` and hand out views of
    ``[:, :, :length]``, so appends grow a buffer geometrically and a view
    once handed out is never overwritten.  Both caches hold their
    block-axis state this way: the contiguous cache's packed blocks and
    reconstruction, and the paged store's group reconstructions.

    The headroom sits at the end of every head's rows, so it lies between
    heads; with transparent huge pages (numpy advises them for arrays of
    4 MiB and more) a gap under 2 MiB is resident once its neighbours are
    written.  An eighth keeps that cost small while a grown buffer still
    covers ``N_r``-token flushes for ``L / (8 N_r)`` flushes.
    """
    if buf is not None and buf.shape[2] >= shape[2]:
        return buf
    grown = np.empty(shape[:2] + (shape[2] + shape[2] // 8 + 1,) + tuple(shape[3:]), dtype)
    if used:
        grown[:, :, :used] = buf[:, :, :used]
    return grown


def grow_reconstruction(bufs, used: int, shape: Tuple[int, ...], fill):
    """Extend a ``(K, V)`` reconstruction to ``shape``: the one growth rule
    of both caches' memos.  Each of ``bufs`` (None when cold) goes through
    :func:`reserve`, ``fill`` writes rows ``used:`` of both (past every row
    handed out), and the ``[:, :, :shape[2]]`` views come back with the
    buffers.  Blocks dequantize independently, so a reconstruction grown
    a few block columns at a time holds a full rebuild's bits."""
    bufs = tuple(reserve(buf, used, shape) for buf in bufs)
    fill(tuple(buf[:, :, used : shape[2]] for buf in bufs))
    return tuple(buf[:, :, : shape[2]] for buf in bufs), bufs


def _flat_heads(a: np.ndarray) -> np.ndarray:
    """``a`` (``[batch, hkv, ...]``) as ``[1, batch * hkv, ...]``."""
    return a.reshape(1, -1, *a.shape[2:])


def _block_chunks(n_heads: int, n_blocks: int, block_values: int):
    """``(heads, blocks)`` slices tiling ``n_heads x n_blocks`` blocks in
    chunks of about :data:`_CHUNK_VALUES` values: whole heads at a time
    when a head fits, else runs of one head's blocks."""
    heads_per = max(1, _CHUNK_VALUES // max(1, n_blocks * block_values))
    blocks_per = max(1, min(n_blocks, _CHUNK_VALUES // block_values))
    for h0 in range(0, n_heads, heads_per):
        for j0 in range(0, n_blocks, blocks_per):
            yield slice(h0, h0 + heads_per), slice(j0, j0 + blocks_per)


def _kv_out(out, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``out`` checked against the ``(K, V)`` shape, or fresh FP32 arrays."""
    if out is None:
        return np.empty(shape, np.float32), np.empty(shape, np.float32)
    if any(o.shape != shape or o.dtype != np.float32 for o in out):
        raise ValueError(f"dequant output must be two FP32 arrays of shape {shape}")
    return tuple(out)


class BlockBatch(abc.ABC):
    """The array interface every batched block format shares.

    A format is a tuple of per-block tensors, block axis 2 (``[batch, hkv,
    n_blocks, ...]``), plus the configuration that reads them back.
    Storage that only moves blocks around — the contiguous cache's block
    buffers, or the paged pool's per-page frames — works on :attr:`arrays`
    and rebuilds with :meth:`with_arrays`, never on a format's fields.
    """

    @property
    @abc.abstractmethod
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """Every per-block tensor, block axis at 2, in a fixed order."""

    @abc.abstractmethod
    def with_arrays(self, arrays) -> "BlockBatch":
        """The same configuration over other tensors, ordered as :attr:`arrays`."""

    @property
    def batch(self) -> int:
        return self.arrays[0].shape[0]

    @property
    def hkv(self) -> int:
        return self.arrays[0].shape[1]

    @property
    def n_blocks(self) -> int:
        return self.arrays[0].shape[2]


@dataclass
class PackedBlockBatch(BlockBatch):
    """All quantized+packed blocks of a cache, stored struct-of-arrays.

    Block axis is axis 2: ``k_words``/``v_words`` are
    ``[batch, hkv, n_blocks, tiles_r, tiles_c, 32, words_per_lane]`` (each
    block's words in fragment order), and the ``half2`` metadata inside
    ``k_params``/``v_params`` carries the same ``[batch, hkv, n_blocks,
    ...]`` leading dims.  K blocks are packed in ``(d, N_r)`` orientation
    (K is the B operand of ``Q K^T``, contracting over ``d``), V blocks in
    ``(N_r, d)`` for the ``P V`` MMA.
    """

    length: int
    head_dim: int
    bits: int
    word_bits: int
    layout_name: str
    k_words: np.ndarray
    v_words: np.ndarray
    k_params: QuantParams
    v_params: QuantParams

    @property
    def arrays(self) -> Tuple[np.ndarray, ...]:
        kp, vp = self.k_params, self.v_params
        return (self.k_words, self.v_words, kp.scale, kp.zero, vp.scale, vp.zero)

    def with_arrays(self, arrays) -> "PackedBlockBatch":
        k_words, v_words, k_scale, k_zero, v_scale, v_zero = arrays
        kp, vp = self.k_params, self.v_params
        return PackedBlockBatch(
            length=self.length,
            head_dim=self.head_dim,
            bits=self.bits,
            word_bits=self.word_bits,
            layout_name=self.layout_name,
            k_words=k_words,
            v_words=v_words,
            k_params=QuantParams(k_scale, k_zero, kp.axis, kp.group_size, kp.bits),
            v_params=QuantParams(v_scale, v_zero, vp.axis, vp.group_size, vp.bits),
        )

    def dequant_kv(self, config: BitDecodingConfig, out=None) -> Tuple[np.ndarray, np.ndarray]:
        """Unpack + dequantize every block, in bounded chunks.

        Returns FP32 ``(K, V)`` of shape ``[batch, hkv, n_blocks * N_r,
        d]``, written into ``out`` when given (a pair of such arrays, any
        batch/head strides whose two axes merge, as every axis-2 slice of
        a C-order buffer's does) — all heads reconstructed through the
        real fragment-order unpack.  The blocks are walked in chunks of
        about :data:`_CHUNK_VALUES` values (:func:`_block_chunks`), each
        unpacked, gathered and dequantized straight into its rows of the
        output, so no temporary grows with the cache.  Dequant is
        independent per block, so the chunking changes no bit.
        """
        layout = _kv_fragment_layout(config)
        if layout.name != self.layout_name:
            raise ValueError(
                "Packing Kernel instruction configuration "
                f"({layout.name}) does not match the Residual Kernel's "
                f"({self.layout_name}); Sec. IV-A(4) requires them identical"
            )
        interleaved = config.dequant_method == "lop3"
        n, d = self.length, self.head_dim
        batch, hkv, nb = self.k_words.shape[:3]
        out = _kv_out(out, (batch, hkv, nb * n, d))

        # The inverse fragment permutation turns the scatter back into a
        # gather (``np.take``), which runs an order of magnitude faster
        # than advanced-index assignment on 10^8-element caches.  K words
        # address the (d, N_r) packing orientation; the transposed offsets
        # land the codes straight in (N_r, d).
        _, inv_k = block_fragment_offsets(layout, d, n, transposed=True)
        _, inv_v = block_fragment_offsets(layout, n, d)
        arrays = [_flat_heads(a) for a in self.arrays]
        k_out, v_out = (_flat_heads(o) for o in out)
        if any(o.size and not np.may_share_memory(o, dst) for o, dst in zip((k_out, v_out), out)):
            raise ValueError("dequant output must merge its batch and head axes without a copy")
        for heads, blocks in _block_chunks(batch * hkv, nb, n * d):
            chunk = self.with_arrays([a[:, heads, blocks] for a in arrays])
            rows = slice(blocks.start * n, blocks.stop * n)
            for words, params, inv, dst in (
                (chunk.k_words, chunk.k_params, inv_k, k_out),
                (chunk.v_words, chunk.v_params, inv_v, v_out),
            ):
                frag = unpack_values(words, self.bits, self.word_bits, interleaved=interleaved)
                lead = frag.shape[:3]
                codes = np.take(frag.reshape(*lead, n * d), inv, axis=-1)
                dequantize(
                    codes.reshape(*lead, n, d), params, out=dst[:, heads, rows].reshape(*lead, n, d)
                )
        return out

    @property
    def packed_nbytes(self) -> int:
        """Packed-word bytes, from array shapes in O(1)."""
        return self.k_words.nbytes + self.v_words.nbytes

    @property
    def meta_nbytes(self) -> float:
        """half2 metadata bytes, from array shapes in O(1)."""
        return self.k_params.nbytes + self.v_params.nbytes


@dataclass
class Fp4BlockBatch(BlockBatch):
    """All micro-scaling FP4 blocks of a cache, struct-of-arrays (axis 2)."""

    length: int
    head_dim: int
    fmt: str
    k_values: np.ndarray  # [batch, hkv, n_blocks, N_r, d] fp16
    v_values: np.ndarray
    k_scales: Fp4Params
    v_scales: Fp4Params

    @property
    def arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.k_values, self.v_values, self.k_scales.scale, self.v_scales.scale)

    def with_arrays(self, arrays) -> "Fp4BlockBatch":
        k_values, v_values, k_scale, v_scale = arrays
        ks, vs = self.k_scales, self.v_scales
        return Fp4BlockBatch(
            length=self.length,
            head_dim=self.head_dim,
            fmt=self.fmt,
            k_values=k_values,
            v_values=v_values,
            k_scales=Fp4Params(k_scale, ks.axis, ks.block_size, ks.fmt),
            v_scales=Fp4Params(v_scale, vs.axis, vs.block_size, vs.fmt),
        )

    def dequant_kv(self, config: BitDecodingConfig, out=None) -> Tuple[np.ndarray, np.ndarray]:
        """FP32 ``(K, V)`` ``[batch, hkv, n_blocks * N_r, d]``, written into
        ``out`` when given: one FP16 -> FP32 cast per tensor, straight into
        the output, with no temporary."""
        batch, hkv, nb = self.k_values.shape[:3]
        out = _kv_out(out, (batch, hkv, nb * self.length, self.head_dim))
        for values, dst in zip((self.k_values, self.v_values), out):
            np.copyto(dst.reshape(values.shape), values)
        return out

    @property
    def packed_nbytes(self) -> int:
        # 2 tensors x 4 bits per value, as the per-block accounting.
        return int(self.batch * self.hkv * self.n_blocks * self.length * self.head_dim)

    @property
    def meta_nbytes(self) -> float:
        return self.k_scales.nbytes + self.v_scales.nbytes


def flush_blocks(
    k_blocks: np.ndarray, v_blocks: np.ndarray, config: BitDecodingConfig
) -> BlockBatch:
    """Quantize + pack a batch of residual blocks, cache-blocked.

    ``k_blocks`` / ``v_blocks`` are ``[batch, hkv, n_blocks, N_r, d]``.
    Because no quantization group and no fragment permutation ever crosses
    a residual-block boundary, the flush is embarrassingly chunkable: the
    blocks are walked in runs sized to :data:`_CHUNK_VALUES` and
    each run does group statistics, affine quantization and the fused
    fragment-gather + word-pack (:func:`repro.core.packing.gather_pack_into`)
    while its working set is still cache-resident, with every intermediate
    buffer reused across chunks.  Bit-exact equivalent of flushing each
    (batch, head, block) on its own — the per-block spec in
    ``tests/reference_cache.py``, which the hypothesis sweep in
    ``tests/core/test_vectorized_cache.py`` holds it to.
    """
    k_blocks = np.asarray(k_blocks)
    v_blocks = np.asarray(v_blocks)
    if k_blocks.ndim != 5 or k_blocks.shape != v_blocks.shape:
        raise ValueError("K and V blocks must share a [batch, hkv, n_blocks, N_r, d] shape")
    batch, hkv, nb, n, d = k_blocks.shape

    if config.version == "fp4":
        k_blocks = k_blocks.astype(np.float32, copy=False)
        v_blocks = v_blocks.astype(np.float32, copy=False)
        k_vals, k_scales = quantize_fp4(k_blocks, config.fp4_format, axis=-1)
        v_vals, v_scales = quantize_fp4(v_blocks, config.fp4_format, axis=-1)
        return Fp4BlockBatch(
            length=n,
            head_dim=d,
            fmt=config.fp4_format,
            k_values=k_vals.astype(np.float16),
            v_values=v_vals.astype(np.float16),
            k_scales=k_scales,
            v_scales=v_scales,
        )

    # Group sizes clamp to the block's actual extents: the key group runs
    # along seq (KC) or channels (KT), the value group along channels.
    key_axis_len = n if config.granularity == "channel" else d
    key_group = min(config.key_group_size, key_axis_len)
    channel = config.granularity == "channel"
    value_group = min(config.value_group_size, d)
    layout = _kv_fragment_layout(config)
    interleaved = config.dequant_method == "lop3"
    ratio = config.packing_ratio
    n_words = (n * d) // ratio
    word_dtype = _word_dtype(config.word_bits)

    # Everything below works on a flat list of blocks: [batch * hkv * nb,
    # N_r, d] contiguous views in, [rows, n_words] word tensors out, all
    # reshaped back to the batched 5-D layouts at the end (pure views).
    rows = batch * hkv * nb
    k_flat = np.ascontiguousarray(k_blocks).reshape(rows, n, d)
    v_flat = np.ascontiguousarray(v_blocks).reshape(rows, n, d)
    flat_k, _ = block_fragment_offsets(layout, d, n, transposed=True)
    flat_v, _ = block_fragment_offsets(layout, n, d)
    k_words = np.empty((rows, n_words), word_dtype)
    v_words = np.empty((rows, n_words), word_dtype)
    # Raw-layout metadata (group axis in reduction position), filled per
    # chunk, transposed to the public half2 layout once at the end.
    k_scale = np.empty(
        (rows, n // key_group, d) if channel else (rows, n, d // key_group), np.float32
    )
    k_zero = np.empty_like(k_scale)
    v_scale = np.empty((rows, n, d // value_group), np.float32)
    v_zero = np.empty_like(v_scale)

    chunk_rows = max(1, _CHUNK_VALUES // (n * d))
    staged = codes = None
    scratch = None
    for r0 in range(0, rows, chunk_rows):
        r1 = min(r0 + chunk_rows, rows)
        if codes is None or codes.shape[0] != r1 - r0:
            shape = (r1 - r0, n, d)
            # FP32 staging: numpy's half-precision reductions run an order
            # of magnitude slower than float32 ones, so each chunk is cast
            # once while hot instead of reducing fp16 directly.  The staged
            # chunk doubles as the affine workspace (it is dead once the
            # group statistics are reduced), keeping the working set to
            # three chunk-sized buffers.
            staged = np.empty(shape, np.float32)
            codes = np.empty(shape, np.uint8)
            scratch = (
                np.empty((r1 - r0, n_words), np.uint8),
                np.empty((r1 - r0, n_words), word_dtype),
            )
        staged[...] = k_flat[r0:r1]
        _, ks, kz, _ = _quantize_chunk(
            staged, config.bits, 1 if channel else 2, key_group, codes, staged
        )
        k_scale[r0:r1], k_zero[r0:r1] = ks, kz
        gather_pack_into(
            codes.reshape(r1 - r0, n * d),
            flat_k,
            config.bits,
            k_words[r0:r1],
            config.word_bits,
            interleaved,
            scratch,
        )
        staged[...] = v_flat[r0:r1]
        _, vs, vz, _ = _quantize_chunk(staged, config.bits, 2, value_group, codes, staged)
        v_scale[r0:r1], v_zero[r0:r1] = vs, vz
        gather_pack_into(
            codes.reshape(r1 - r0, n * d),
            flat_v,
            config.bits,
            v_words[r0:r1],
            config.word_bits,
            interleaved,
            scratch,
        )

    k_frag_shape = _block_fragment_indices(layout, d, n)[0].shape
    v_frag_shape = _block_fragment_indices(layout, n, d)[0].shape
    lead = (batch, hkv, nb)

    def params(scale: np.ndarray, zero: np.ndarray, axis: int, group: int) -> QuantParams:
        # The 5-D group axis (3 for channel-wise K, 4 otherwise) moves to
        # last, matching what quantize() publishes for the batched tensor.
        full = scale.reshape(*lead, *scale.shape[1:])
        return QuantParams(
            scale=np.ascontiguousarray(np.moveaxis(full, axis, -1)),
            zero=np.ascontiguousarray(np.moveaxis(zero.reshape(full.shape), axis, -1)),
            axis=axis,
            group_size=group,
            bits=config.bits,
        )

    return PackedBlockBatch(
        length=n,
        head_dim=d,
        bits=config.bits,
        word_bits=config.word_bits,
        layout_name=layout.name,
        k_words=k_words.reshape(*lead, *k_frag_shape[:-1], k_frag_shape[-1] // ratio),
        v_words=v_words.reshape(*lead, *v_frag_shape[:-1], v_frag_shape[-1] // ratio),
        k_params=params(k_scale, k_zero, 3 if channel else 4, key_group),
        v_params=params(v_scale, v_zero, 4, value_group),
    )


def attend_residual(
    q_grouped: np.ndarray,
    k_res: np.ndarray,
    v_res: np.ndarray,
    config: BitDecodingConfig,
    scale: Optional[float] = None,
) -> OnlineSoftmaxState:
    """Attention of grouped queries over the FP16 residual rows.

    ``q_grouped``: ``(..., M, d)``; ``k_res``/``v_res``: ``(..., res_len, d)``.
    Leading dims (if any) are independent (batch, kv-head) problems — the
    vectorized cache passes ``[batch, hkv, M, d]`` queries so every head's
    residual attention runs in one batched update.  Returns the partial
    online-softmax state, merged by the caller with the Packing Kernel's
    state.
    """
    q_grouped = np.asarray(q_grouped, dtype=np.float32)
    k_res = np.asarray(k_res, dtype=np.float32)
    v_res = np.asarray(v_res, dtype=np.float32)
    if scale is None:
        scale = 1.0 / math.sqrt(q_grouped.shape[-1])
    state = OnlineSoftmaxState.fresh(
        q_grouped.shape[-2], v_res.shape[-1], leading=q_grouped.shape[:-2]
    )
    if k_res.shape[-2] == 0:
        return state
    s = qk_scores(q_grouped, k_res, scale)
    # Pad the partial residual to the warp split (-inf scores / zero rows),
    # exactly as the kernel pads its warp tiles.
    wn = config.effective_wn
    s, v_tile = pad_tail(s, v_res, wn)
    tile_softmax_split(state, s, v_tile, wn, cooperative=config.use_coop_softmax)
    return state


def attend_residual_grouped(
    q_grouped: np.ndarray,
    k_res: np.ndarray,
    v_res: np.ndarray,
    res_lens: np.ndarray,
    config: BitDecodingConfig,
    scale: Optional[float] = None,
) -> OnlineSoftmaxState:
    """Residual attention for a ragged shape group, padded bit-exactly.

    ``q_grouped`` is ``[G, hkv, M, d]``; ``k_res``/``v_res`` are
    ``[G, hkv, r_max, d]`` where member ``g`` owns rows ``[0, res_lens[g])``
    and the tail rows are zero padding, as
    :meth:`~repro.attn.paged.PagedBitKVCache.residual_group` gathers them.
    The padding contract is tolerance-free: the result is bit-identical to running
    :func:`attend_residual` per member on its unpadded rows, because

    - each member's score rows are computed by a matmul over exactly its
      ``res_lens[g]`` keys (a wider padded GEMM routes through a different
      BLAS kernel and drifts in the last bit), with pad columns then set to
      ``-inf`` so ``exp`` maps them to exact ``0.0`` and the zero value
      rows contribute exact zeros to the PV accumulation, and
    - the softmax denominator is summed per member over exactly the
      warp-padded width the per-sequence kernel uses
      (``ceil(r_g / wn) * wn`` columns), reproducing its summation tree —
      a shared full-width sum would regroup numpy's pairwise reduction and
      drift in the last bit.

    Only the cooperative softmax (or ``wn == 1``) admits ragged padding:
    the broken non-cooperative path is partition-sensitive by design, so
    callers must group such configs by exact residual fill instead.
    """
    res_lens = np.asarray(res_lens, dtype=np.int64)
    r_max = k_res.shape[-2]
    if r_max == 0 or np.all(res_lens == r_max):
        return attend_residual(q_grouped, k_res, v_res, config, scale)
    if not (config.use_coop_softmax or config.effective_wn == 1):
        raise ValueError(
            "ragged residual grouping requires the cooperative softmax; "
            "group by exact residual fill for non-cooperative configs"
        )
    q_grouped = np.asarray(q_grouped, dtype=np.float32)
    k_res = np.asarray(k_res, dtype=np.float32)
    v_res = np.asarray(v_res, dtype=np.float32)
    if scale is None:
        scale = 1.0 / math.sqrt(q_grouped.shape[-1])
    wn = config.effective_wn
    n_pad = -(-r_max // wn) * wn
    G, hkv = k_res.shape[0], k_res.shape[1]
    M = q_grouped.shape[-2]
    d = v_res.shape[-1]
    # QK^T at each member's true width (bit-exactness; see docstring), one
    # stacked matmul per distinct fill: numpy issues the same per-matrix
    # GEMM for every member of it.
    s = np.full((G, hkv, M, n_pad), -np.inf, dtype=np.float32)
    # The pad rows are already zeros (see docstring), so ``v_res`` is the
    # PV operand as it stands unless ``wn`` pads the width further.
    v_tile = v_res
    if n_pad > r_max:
        v_tile = np.zeros((G, hkv, n_pad, d), dtype=np.float32)
        v_tile[..., :r_max, :] = v_res
    fills = [(r, np.flatnonzero(res_lens == r)) for r in np.unique(res_lens).tolist() if r]
    for r, group in fills:
        s[group, ..., :r] = qk_scores(q_grouped[group], k_res[group, :, :r], scale)
    m = s.max(axis=-1)
    p = np.exp(s - np.where(np.isfinite(m), m, 0.0)[..., None])
    # ``+ 0.0`` mirrors the fresh-state ``0 * correction + …`` update so
    # even signed zeros match the per-sequence path.
    acc = p @ v_tile + 0.0
    lens = np.zeros(m.shape, dtype=np.float32)  # an empty fill keeps l=0 (fresh state)
    for r, group in fills:
        n_g = min(-(-r // wn) * wn, n_pad)
        lens[group] = p[group, ..., :n_g].sum(axis=-1) + 0.0
    return OnlineSoftmaxState(m=m, l=lens, acc=acc)


# ---------------------------------------------------------------------------
# Trace builders (performance model)
# ---------------------------------------------------------------------------


def build_residual_launch(
    geom: AttentionGeometry,
    config: BitDecodingConfig,
    arch: ArchSpec,
    res_len: Optional[int] = None,
    flush: bool = False,
) -> KernelLaunch:
    """Performance trace of one Residual-Kernel launch.

    Covers attention over ``res_len`` FP16 tokens per (batch, kv-head) and,
    when ``flush`` is set, the fused quantize+pack of the completed block.
    """
    nr = config.residual_block_size
    if res_len is None:
        res_len = nr
    if not 0 < res_len <= nr:
        raise ValueError(f"res_len must be in (0, {nr}], got {res_len}")
    d = geom.head_dim
    _, m_pad = gemm_m_dimension(geom.hq, geom.hkv, geom.q_len)
    heads = geom.batch * geom.hkv

    trace = OpTrace()
    # FP16 residual K/V rows + grouped Q per head.
    trace.gmem_read(heads * 2.0 * res_len * d * 2.0)
    trace.gmem_read(heads * m_pad * d * 2.0)
    # Partial-state output for the merge with the Packing Kernel.
    trace.gmem_write(heads * m_pad * (d + 2.0) * 4.0)
    # QK^T + PV on tensor cores over the residual rows.
    trace.tensor_core(heads * 2.0 * 2.0 * m_pad * res_len * d, "fp16")
    trace.merge(softmax_ops(heads * m_pad * res_len, heads * m_pad, config.effective_wn))
    rescale_accum_ops(heads * m_pad * d, trace)
    # Staged tiles through shared memory (in + ldmatrix out).
    trace.smem_traffic(heads * 2.0 * (2.0 * res_len * d * 2.0 + m_pad * d * 2.0))
    trace.barriers_per_block += 2.0

    subtraces = {}
    if flush:
        n_values = heads * 2.0 * nr * d
        group = (
            config.key_group_size
            if config.version != "fp4"
            else (32 if config.fp4_format == "mxfp4" else 16)
        )
        quant = quant_pack_ops(n_values, 4 if config.version == "fp4" else config.bits, group)
        packed_bytes = heads * 2.0 * nr * d * config.storage_bits_per_value / 8.0
        meta_bytes = _meta_bytes(heads, nr, d, config)
        quant.gmem_write(packed_bytes + meta_bytes)
        trace.merge(quant)
        subtraces["quant_pack"] = quant

    warp_layout = WarpLayout(wm=config.wm, wn=config.effective_wn)
    # Residual rows are processed in tile_n-wide chunks like any other tile.
    stage_rows = min(nr, config.tile_n)
    smem = 2 * stage_rows * d * 2 + m_pad * d * 2 + 4096
    # The residual path is FP16 (no dequant in the hot loop); overlap is
    # governed by occupancy and the async-copy pipeline.
    hide = memory_hide_factor(2.0 * warp_layout.warps_per_block, pipelined=config.use_pipeline)
    return KernelLaunch(
        name="residual_kernel",
        trace=trace,
        grid_blocks=heads,
        warps_per_block=warp_layout.warps_per_block,
        smem_per_block_bytes=smem,
        hide_factor=hide,
        instruction_path=config.instruction_path,
        launches=1,
        subtraces=subtraces,
    )


def _meta_bytes(heads: float, n_tokens: float, d: float, config: BitDecodingConfig) -> float:
    """Metadata bytes (scale/zero or block scales) for ``n_tokens`` per head."""
    if config.version == "fp4":
        block = 32 if config.fp4_format == "mxfp4" else 16
        return heads * 2.0 * n_tokens * d / block
    if config.granularity == "channel":
        k_meta = heads * d * (n_tokens / config.key_group_size) * 4.0
    else:
        k_meta = heads * n_tokens * (d / config.key_group_size) * 4.0
    v_meta = heads * n_tokens * (d / config.value_group_size) * 4.0
    return k_meta + v_meta


def build_prefill_quant_launch(
    geom: AttentionGeometry, config: BitDecodingConfig, arch: ArchSpec
) -> KernelLaunch:
    """Trace of quantizing+packing a whole prefill context (Table II).

    BitDecoding fuses this into the prefill attention epilogue: the KV tiles
    are already in registers, so the only extra work is the quantization
    math and the packed-cache writes — no separate transform pass.
    """
    nr = config.residual_block_size
    packed_tokens = geom.seq_len - (geom.seq_len % nr)
    heads = geom.batch * geom.hkv
    d = geom.head_dim
    n_values = heads * 2.0 * packed_tokens * d

    trace = quant_pack_ops(n_values, config.bits, config.key_group_size)
    packed_bytes = n_values * config.storage_bits_per_value / 8.0
    trace.gmem_write(packed_bytes + _meta_bytes(heads, packed_tokens, d, config))

    warp_layout = WarpLayout(wm=config.wm, wn=config.effective_wn)
    return KernelLaunch(
        name="prefill_quant_fused",
        trace=trace,
        grid_blocks=max(1, heads * max(1, packed_tokens // config.tile_n)),
        warps_per_block=warp_layout.warps_per_block,
        smem_per_block_bytes=16 * 1024,
        hide_factor=1.0,
        instruction_path=config.instruction_path,
        launches=1,
    )
