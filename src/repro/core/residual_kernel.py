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

Numerics here are bit-exact: :func:`flush_block` really quantizes and packs
through the fragment permutation; the Packing Kernel really unpacks the
words.  Trace builders mirror the same work for the performance model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.layouts import (
    MMA_M16N8K16_B,
    FragmentLayout,
    _block_fragment_indices,
    block_fragment_offsets,
    block_fragment_pack,
    block_fragment_unpack,
    tiled_layout,
)
from repro.core.packing import _word_dtype, gather_pack_into, unpack_values
from repro.core.quantization import (
    Fp4Params,
    QuantParams,
    QuantScheme,
    _quantize_chunk,
    dequantize,
    quantize_fp4,
    quantize_key,
    quantize_value,
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


@dataclass
class PackedBlock:
    """One quantized+packed residual block of the low-bit KV cache.

    ``k_words`` is packed in (d, seq) orientation — K is the B operand of
    ``Q K^T`` whose contraction dimension is ``d`` — while ``v_words`` is
    packed in (seq, d) orientation for the ``P V`` MMA.
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

    def dequant_kv(self, config: BitDecodingConfig) -> Tuple[np.ndarray, np.ndarray]:
        """Unpack + dequantize this block back to FP32 ``(length, d)`` pairs."""
        layout = _kv_fragment_layout(config)
        if layout.name != self.layout_name:
            raise ValueError(
                "Packing Kernel instruction configuration "
                f"({layout.name}) does not match the Residual Kernel's "
                f"({self.layout_name}); Sec. IV-A(4) requires them identical"
            )
        interleaved = config.dequant_method == "lop3"
        k_codes = block_fragment_unpack(
            self.k_words,
            (self.head_dim, self.length),
            layout,
            self.bits,
            self.word_bits,
            interleaved=interleaved,
        )
        v_codes = block_fragment_unpack(
            self.v_words,
            (self.length, self.head_dim),
            layout,
            self.bits,
            self.word_bits,
            interleaved=interleaved,
        )
        k_hat = dequantize(k_codes.T, self.k_params)
        v_hat = dequantize(v_codes, self.v_params)
        return k_hat, v_hat

    @property
    def packed_nbytes(self) -> int:
        return self.k_words.nbytes + self.v_words.nbytes

    @property
    def meta_nbytes(self) -> float:
        return self.k_params.nbytes + self.v_params.nbytes


@dataclass
class Fp4Block:
    """One micro-scaling FP4 block (Blackwell native path).

    Stores the representable (already block-scaled) values the tensor cores
    compute with, plus the per-block scales for byte accounting.
    """

    length: int
    head_dim: int
    fmt: str
    k_values: np.ndarray
    v_values: np.ndarray
    k_scales: Fp4Params
    v_scales: Fp4Params

    def dequant_kv(self, config: BitDecodingConfig) -> Tuple[np.ndarray, np.ndarray]:
        return self.k_values.astype(np.float32), self.v_values.astype(np.float32)

    @property
    def packed_nbytes(self) -> int:
        return int(self.length * self.head_dim)  # 2 tensors x 4 bits

    @property
    def meta_nbytes(self) -> float:
        return self.k_scales.nbytes + self.v_scales.nbytes


def flush_block(k_block: np.ndarray, v_block: np.ndarray, config: BitDecodingConfig):
    """Quantize + pack one full residual block (the fused flush).

    ``k_block`` / ``v_block`` are FP16 ``(N_r, d)``.  Returns a
    :class:`PackedBlock` (integer path) or :class:`Fp4Block` (Blackwell
    native path).
    """
    k_block = np.asarray(k_block, dtype=np.float32)
    v_block = np.asarray(v_block, dtype=np.float32)
    n, d = k_block.shape
    if v_block.shape != (n, d):
        raise ValueError("K and V blocks must share a shape")

    if config.version == "fp4":
        k_vals, k_scales = quantize_fp4(k_block, config.fp4_format, axis=-1)
        v_vals, v_scales = quantize_fp4(v_block, config.fp4_format, axis=-1)
        return Fp4Block(
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
    key_scheme = config.key_scheme
    if key_scheme.group_size > key_axis_len:
        key_scheme = QuantScheme(
            bits=key_scheme.bits,
            granularity=key_scheme.granularity,
            group_size=key_axis_len,
        )
    k_codes, k_params = quantize_key(k_block, key_scheme, seq_axis=0, channel_axis=1)
    v_codes, v_params = quantize_value(
        v_block, config.bits, min(config.value_group_size, d), channel_axis=1
    )
    layout = _kv_fragment_layout(config)
    interleaved = config.dequant_method == "lop3"
    k_words = block_fragment_pack(
        k_codes.T, layout, config.bits, config.word_bits, interleaved=interleaved
    )
    v_words = block_fragment_pack(
        v_codes, layout, config.bits, config.word_bits, interleaved=interleaved
    )
    return PackedBlock(
        length=n,
        head_dim=d,
        bits=config.bits,
        word_bits=config.word_bits,
        layout_name=layout.name,
        k_words=k_words,
        v_words=v_words,
        k_params=k_params,
        v_params=v_params,
    )


# ---------------------------------------------------------------------------
# Batched struct-of-arrays storage (the vectorized two-part cache)
# ---------------------------------------------------------------------------


def _concat_params(a: QuantParams, b: QuantParams, block_axis: int) -> QuantParams:
    """Concatenate two batched :class:`QuantParams` along the block axis."""
    if (a.axis, a.group_size, a.bits) != (b.axis, b.group_size, b.bits):
        raise ValueError("cannot concatenate metadata of differently-quantized blocks")
    return QuantParams(
        scale=np.concatenate([a.scale, b.scale], axis=block_axis),
        zero=np.concatenate([a.zero, b.zero], axis=block_axis),
        axis=a.axis,
        group_size=a.group_size,
        bits=a.bits,
    )


@dataclass
class PackedBlockBatch:
    """All quantized+packed blocks of a cache, stored struct-of-arrays.

    Block axis is axis 2: ``k_words``/``v_words`` are
    ``[batch, hkv, n_blocks, tiles_r, tiles_c, 32, words_per_lane]`` (the
    per-block fragment-order words of :func:`flush_block`, batched), and the
    ``half2`` metadata inside ``k_params``/``v_params`` carries the same
    ``[batch, hkv, n_blocks, ...]`` leading dims.  K blocks are packed in
    ``(d, N_r)`` orientation, V blocks in ``(N_r, d)``, exactly as the
    per-block :class:`PackedBlock` stores them.
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
    def batch(self) -> int:
        return self.k_words.shape[0]

    @property
    def hkv(self) -> int:
        return self.k_words.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.k_words.shape[2]

    def extend(self, other: "PackedBlockBatch") -> "PackedBlockBatch":
        """Append another batch of blocks (one flush) along the block axis."""
        if (self.length, self.head_dim, self.bits, self.word_bits, self.layout_name) != (
            other.length,
            other.head_dim,
            other.bits,
            other.word_bits,
            other.layout_name,
        ):
            raise ValueError("cannot extend with blocks of a different configuration")
        return PackedBlockBatch(
            length=self.length,
            head_dim=self.head_dim,
            bits=self.bits,
            word_bits=self.word_bits,
            layout_name=self.layout_name,
            k_words=np.concatenate([self.k_words, other.k_words], axis=2),
            v_words=np.concatenate([self.v_words, other.v_words], axis=2),
            k_params=_concat_params(self.k_params, other.k_params, block_axis=2),
            v_params=_concat_params(self.v_params, other.v_params, block_axis=2),
        )

    def dequant_kv(self, config: BitDecodingConfig) -> Tuple[np.ndarray, np.ndarray]:
        """Unpack + dequantize every block in one batched pass.

        Returns FP32 ``(K, V)`` of shape ``[batch, hkv, n_blocks * N_r, d]``
        — all heads reconstructed through the real fragment-order unpack,
        with no per-(batch, head, block) Python iteration.
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
        batch, hkv = self.batch, self.hkv

        # The inverse fragment permutation turns the scatter back into a
        # gather (``np.take``), which runs an order of magnitude faster
        # than advanced-index assignment on 10^8-element caches.  K words
        # address the (d, N_r) packing orientation; the transposed offsets
        # land the codes straight in (N_r, d).
        k_frag = unpack_values(self.k_words, self.bits, self.word_bits, interleaved=interleaved)
        _, inv_k = block_fragment_offsets(layout, d, n, transposed=True)
        k_codes = np.take(k_frag.reshape(batch, hkv, self.n_blocks, n * d), inv_k, axis=-1)
        k_codes = k_codes.reshape(batch, hkv, self.n_blocks, n, d)

        v_frag = unpack_values(self.v_words, self.bits, self.word_bits, interleaved=interleaved)
        _, inv_v = block_fragment_offsets(layout, n, d)
        v_codes = np.take(v_frag.reshape(batch, hkv, self.n_blocks, n * d), inv_v, axis=-1)
        v_codes = v_codes.reshape(batch, hkv, self.n_blocks, n, d)

        k_hat = dequantize(k_codes, self.k_params)
        v_hat = dequantize(v_codes, self.v_params)
        return (
            k_hat.reshape(batch, hkv, self.n_blocks * n, d),
            v_hat.reshape(batch, hkv, self.n_blocks * n, d),
        )

    @property
    def packed_nbytes(self) -> int:
        """Packed-word bytes, from array shapes in O(1)."""
        return self.k_words.nbytes + self.v_words.nbytes

    @property
    def meta_nbytes(self) -> float:
        """half2 metadata bytes, from array shapes in O(1)."""
        return self.k_params.nbytes + self.v_params.nbytes


@dataclass
class Fp4BlockBatch:
    """All micro-scaling FP4 blocks of a cache, struct-of-arrays (axis 2)."""

    length: int
    head_dim: int
    fmt: str
    k_values: np.ndarray  # [batch, hkv, n_blocks, N_r, d] fp16
    v_values: np.ndarray
    k_scales: Fp4Params
    v_scales: Fp4Params

    @property
    def batch(self) -> int:
        return self.k_values.shape[0]

    @property
    def hkv(self) -> int:
        return self.k_values.shape[1]

    @property
    def n_blocks(self) -> int:
        return self.k_values.shape[2]

    def extend(self, other: "Fp4BlockBatch") -> "Fp4BlockBatch":
        if (self.length, self.head_dim, self.fmt) != (other.length, other.head_dim, other.fmt):
            raise ValueError("cannot extend with blocks of a different configuration")

        def cat(a: Fp4Params, b: Fp4Params) -> Fp4Params:
            return Fp4Params(
                scale=np.concatenate([a.scale, b.scale], axis=2),
                axis=a.axis,
                block_size=a.block_size,
                fmt=a.fmt,
            )

        return Fp4BlockBatch(
            length=self.length,
            head_dim=self.head_dim,
            fmt=self.fmt,
            k_values=np.concatenate([self.k_values, other.k_values], axis=2),
            v_values=np.concatenate([self.v_values, other.v_values], axis=2),
            k_scales=cat(self.k_scales, other.k_scales),
            v_scales=cat(self.v_scales, other.v_scales),
        )

    def dequant_kv(self, config: BitDecodingConfig) -> Tuple[np.ndarray, np.ndarray]:
        batch, hkv, nb = self.k_values.shape[:3]
        flat = (batch, hkv, nb * self.length, self.head_dim)
        return (
            self.k_values.astype(np.float32).reshape(flat),
            self.v_values.astype(np.float32).reshape(flat),
        )

    @property
    def packed_nbytes(self) -> int:
        # 2 tensors x 4 bits per value, as the per-block accounting.
        return int(self.batch * self.hkv * self.n_blocks * self.length * self.head_dim)

    @property
    def meta_nbytes(self) -> float:
        return self.k_scales.nbytes + self.v_scales.nbytes


#: Per-chunk working-set budget of the chunked flush, in K-or-V values.
#: A chunk touches ~9 bytes per value across its buffers (fp16 source,
#: fp32 affine, uint8 codes, word output + scratch); 512k values keeps
#: that a few MiB — inside the last-level cache on anything current — so
#: the quantize/gather/pack passes stream from cache instead of DRAM.
_FLUSH_CHUNK_VALUES = 512 * 1024


def flush_blocks(
    k_blocks: np.ndarray, v_blocks: np.ndarray, config: BitDecodingConfig
) -> Union[PackedBlockBatch, Fp4BlockBatch]:
    """Quantize + pack a batch of residual blocks, cache-blocked.

    ``k_blocks`` / ``v_blocks`` are ``[batch, hkv, n_blocks, N_r, d]``.
    Because no quantization group and no fragment permutation ever crosses
    a residual-block boundary, the flush is embarrassingly chunkable: the
    blocks are walked in runs sized to :data:`_FLUSH_CHUNK_VALUES` and
    each run does group statistics, affine quantization and the fused
    fragment-gather + word-pack (:func:`repro.core.packing.gather_pack_into`)
    while its working set is still cache-resident, with every intermediate
    buffer reused across chunks.  Bit-exact equivalent of calling
    :func:`flush_block` per (batch, head, block) — the hypothesis sweep in
    ``tests/core/test_vectorized_cache.py`` enforces exactly that.
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

    # Group sizes clamp to the block's actual extents, as in flush_block.
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

    chunk_rows = max(1, _FLUSH_CHUNK_VALUES // (n * d))
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
    and the tail rows are zero padding.  The padding contract is
    tolerance-free: the result is bit-identical to running
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
    # Per-member QK^T at each member's true width (bit-exactness; see
    # docstring) — residual tiles are at most ``N_r`` keys, so this loop is
    # negligible next to the grouped packed-cache matmul.
    s = np.full((G, hkv, M, n_pad), -np.inf, dtype=np.float32)
    v_tile = np.zeros((G, hkv, n_pad, d), dtype=np.float32)
    v_tile[..., :r_max, :] = v_res
    for g, r in enumerate(res_lens.tolist()):
        if r:
            s[g, ..., :r] = qk_scores(q_grouped[g], k_res[g, :, :r], scale)
            v_tile[g, :, r:] = 0.0
    m = s.max(axis=-1)
    p = np.exp(s - np.where(np.isfinite(m), m, 0.0)[..., None])
    # ``+ 0.0`` mirrors the fresh-state ``0 * correction + …`` update so
    # even signed zeros match the per-sequence path.
    acc = p @ v_tile + 0.0
    lens = np.zeros(m.shape, dtype=np.float32)
    for g, r in enumerate(res_lens.tolist()):
        if r == 0:
            continue  # fresh-state identity: m=-inf, l=0, acc=0
        n_g = min(-(-r // wn) * wn, n_pad)
        lens[g] = p[g, ..., :n_g].sum(axis=-1) + 0.0
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
    trace.merge(rescale_accum_ops(heads * m_pad * d))
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
