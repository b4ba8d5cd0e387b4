"""The seed per-block KV cache, retained as a slow reference.

This is the pre-vectorization *orchestration* of ``BitKVCache`` /
``BitDecoding.decode``: nested Python loops over ``blocks[b][h]`` lists of
per-block objects, per-head :class:`ResidualBuffer` objects and
per-(batch, head) kernel calls.  It exists so the
batched struct-of-arrays cache can be proven *bit-exact* against the
per-block semantics (see ``tests/core/test_vectorized_cache.py``) and so
``benchmarks/bench_kernel_hotpath.py`` can measure the speedup the
vectorization buys.

It also holds the per-block *flush spec* the seed cache stores with:
:func:`flush_block` quantizes one ``(N_r, d)`` block into a
:class:`PackedBlock` (or an :class:`Fp4Block`) through
:func:`block_fragment_pack` and the seed word arithmetic
:func:`pack_values`, and the blocks read back through
:func:`block_fragment_unpack`.  The product path is the batched
``flush_blocks`` (``block_fragment_offsets`` + ``gather_pack_into``); the
sweep pins it to this spec bit for bit, and ``tests/core/test_layouts.py``
pins the spec's fragment order against the Fig. 3 counterexample.

It also holds :class:`ConcatenatingCache`, the batched cache as it
stood before its block-axis state lived in buffers with headroom: every
flush concatenates the packed tensors and a warm reconstruction with the
new block column, copying the whole context.  The lock-step oracle in
``tests/core/test_cache_growth.py`` holds ``BitKVCache``'s in-place
appends to it.

It also holds the seed decode tile walk, :func:`seed_run_numeric`: every
config walks ``tile_n``-wide tiles through the online softmax (the FP4
path through :func:`state_update_fp4`).  The product path runs that walk
only for the non-cooperative integer ablation and fuses every other
config into one QK^T and a two-pass softmax; the sweep holds the fused
walk to ``FUSED_NUMERICS_TOLERANCE`` of this one and the remaining tiled
walk to it bit for bit.

Scope of the equivalence: this reference shares the low-level primitives
(``quantize``/``dequantize``/``unpack_values``/``tile_softmax_split``)
with the vectorized path, so the sweep pins the batched-vs-per-block
*orchestration*, not the primitives themselves — those are pinned
separately by their own unit tests (``tests/core/test_quantization.py``,
``test_packing.py``, ``test_residual_kernel.py``, ``test_softmax.py``),
which predate the vectorization and ran unchanged against it.  Do not
"optimize" this file — its slowness is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.config import BitDecodingConfig
from repro.core.layouts import FragmentLayout, _block_fragment_indices
from repro.core.packing import _field_order, _word_dtype, packing_ratio, unpack_values
from repro.core.quantization import (
    Fp4Params,
    QuantParams,
    QuantScheme,
    dequantize,
    quantize,
    quantize_fp4,
    quantize_key,
)
from repro.core.query_transform import group_queries, ungroup_output
from repro.core.residual_cache import BatchedResidual, partition_prefill
from repro.core.residual_kernel import _kv_fragment_layout, attend_residual, flush_blocks
from repro.core.softmax import OnlineSoftmaxState, pad_tail, qk_scores, tile_softmax_split


# ---------------------------------------------------------------------------
# The per-block flush spec
# ---------------------------------------------------------------------------


def key_scheme(config: BitDecodingConfig) -> QuantScheme:
    """The Key quantization scheme a configuration selects."""
    return QuantScheme(
        bits=config.bits, granularity=config.granularity, group_size=config.key_group_size
    )


def quantize_value(
    v: np.ndarray, bits: int, group_size: int, channel_axis: int = -1
) -> Tuple[np.ndarray, QuantParams]:
    """Quantize a Value block tensor-wise (groups along the hidden axis)."""
    return quantize(v, bits, channel_axis, group_size)


def pack_values(
    values: np.ndarray,
    bits: int,
    word_bits: int = 16,
    interleaved: bool = False,
) -> np.ndarray:
    """Pack unsigned ``bits``-wide codes into storage words.

    ``values`` may have any shape; packing collapses the last axis by the
    packing ratio.  Raises when the last axis is not a multiple of the ratio
    or when any code is out of range.
    """
    ratio = packing_ratio(bits, word_bits)
    values = np.asarray(values)
    if values.shape[-1] % ratio != 0:
        raise ValueError(
            f"last axis ({values.shape[-1]}) must be a multiple of the "
            f"packing ratio ({ratio})"
        )
    if values.size and (values.min() < 0 or values.max() >= (1 << bits)):
        raise ValueError(f"values out of range for {bits}-bit codes")

    dtype = _word_dtype(word_bits)
    # Shift and OR in the storage word's own width: every code shifted by
    # its field offset stays below 2**word_bits by construction, so the
    # narrow arithmetic is exact and the temporaries are word-sized.
    # (This is the seed packing arithmetic, deliberately left as-is: the
    # per-block spec and the hot-path benchmark baseline both run through
    # it.  The batched flush packs through the faster ``gather_pack_into``,
    # which is unit-tested bit-equal to it.)
    grouped = values.astype(dtype).reshape(*values.shape[:-1], -1, ratio)
    fields = _field_order(ratio, interleaved)
    shifts = (fields * bits).astype(dtype)
    return np.bitwise_or.reduce(grouped << shifts, axis=-1)


def block_fragment_pack(
    qblock: np.ndarray,
    layout: FragmentLayout,
    bits: int,
    word_bits: int = 16,
    interleaved: bool = True,
) -> np.ndarray:
    """Pack a whole quantized block (e.g. ``N_r x d``) in fragment order.

    Each lane packs the slots ``ldmatrix`` left in its registers.  Returns
    the lane-major words in storage order, shape
    ``(tiles_r, tiles_c, 32, words_per_lane)``.
    """
    qblock = np.asarray(qblock)
    row_idx, col_idx = _block_fragment_indices(layout, *qblock.shape)
    frag = qblock[row_idx, col_idx]  # (tr, tc, 32, vpl)
    return pack_values(frag, bits, word_bits, interleaved=interleaved)


def block_fragment_unpack(
    packed: np.ndarray,
    block_shape: Tuple[int, int],
    layout: FragmentLayout,
    bits: int,
    word_bits: int = 16,
    interleaved: bool = True,
) -> np.ndarray:
    """Inverse of :func:`block_fragment_pack`; the round trip being the
    identity *is* the paper's zero-cost layout claim."""
    frag = unpack_values(packed, bits, word_bits, interleaved=interleaved)
    row_idx, col_idx = _block_fragment_indices(layout, *block_shape)
    block = np.empty(block_shape, dtype=frag.dtype)
    block[row_idx, col_idx] = frag
    return block


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
    scheme = key_scheme(config)
    if scheme.group_size > key_axis_len:
        scheme = QuantScheme(
            bits=scheme.bits, granularity=scheme.granularity, group_size=key_axis_len
        )
    k_codes, k_params = quantize_key(k_block, scheme, seq_axis=0, channel_axis=1)
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
# The seed cache
# ---------------------------------------------------------------------------


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


class ConcatenatingCache:
    """The batched two-part cache with concatenating flushes.

    Duck-types what ``BitDecoding.decode`` reads of a cache.  Storage is
    ``BitKVCache``'s — one ``flush_blocks`` batch and one
    ``BatchedResidual`` — but a flush rebuilds the packed tensors with
    ``np.concatenate`` along the block axis, and extends a reconstruction
    memoized at the previous block count the same way: O(context) copies
    per flush, every array exactly sized and C-contiguous.
    """

    def __init__(self, k: np.ndarray, v: np.ndarray, config: BitDecodingConfig):
        batch, hkv, seq_len, d = k.shape
        self.config, self.batch, self.hkv, self.head_dim = config, batch, hkv, d
        nr = config.residual_block_size
        packed_len, res_len = partition_prefill(seq_len, nr)
        nb = packed_len // nr
        self.packed = None
        if nb:
            self.packed = flush_blocks(
                k[:, :, :packed_len].reshape(batch, hkv, nb, nr, d),
                v[:, :, :packed_len].reshape(batch, hkv, nb, nr, d),
                config,
            )
        self.residual = BatchedResidual(batch, hkv, nr, d)
        if res_len:
            self.residual.fill(k[:, :, packed_len:], v[:, :, packed_len:])
        self.memo = None  # (n_blocks, (K, V))

    def append_token(self, k_new: np.ndarray, v_new: np.ndarray) -> bool:
        block = self.residual.append(np.asarray(k_new), np.asarray(v_new))
        if block is None:
            return False
        new = flush_blocks(block[0][:, :, None], block[1][:, :, None], self.config)
        if self.packed is None:
            self.packed = new
            self.memo = None
            return True
        if self.memo is not None and self.memo[0] == self.packed.n_blocks:
            added = new.dequant_kv(self.config)
            self.memo = (
                self.memo[0] + 1,
                tuple(np.concatenate(pair, axis=2) for pair in zip(self.memo[1], added)),
            )
        else:
            self.memo = None
        self.packed = self.packed.with_arrays(
            [np.concatenate(pair, axis=2) for pair in zip(self.packed.arrays, new.arrays)]
        )
        return True

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.packed is None:
            empty = np.zeros((self.batch, self.hkv, 0, self.head_dim), np.float32)
            return empty, empty
        if self.memo is None or self.memo[0] != self.packed.n_blocks:
            self.memo = (self.packed.n_blocks, self.packed.dequant_kv(self.config))
        return self.memo[1]

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.residual.view()


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


def seed_run_numeric(
    q_grouped: np.ndarray,
    k_hat: np.ndarray,
    v_hat: np.ndarray,
    config: BitDecodingConfig,
    scale: float,
) -> OnlineSoftmaxState:
    """The seed Packing-Kernel walk: ``tile_n``-wide tiles through the
    online softmax, for every config."""
    q_grouped = np.asarray(q_grouped, dtype=np.float32)
    k_hat = np.asarray(k_hat, dtype=np.float32)
    v_hat = np.asarray(v_hat, dtype=np.float32)
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


def reference_decode(
    config: BitDecodingConfig,
    q: np.ndarray,
    cache: ReferenceBitKVCache,
) -> np.ndarray:
    """The seed decode loop: per-(batch, kv-head) :func:`seed_run_numeric`
    calls + merge."""
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
                states.append(seed_run_numeric(q_bh, k_hat, v_hat, config, scale))
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
