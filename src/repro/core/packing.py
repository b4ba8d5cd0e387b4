"""Low-level bit packing and unpacking.

BitDecoding stores a quantized KV cache as ``beta``-bit unsigned integers
packed into ``omega``-bit storage words (Sec. IV-A(2)); the *packing ratio*
is ``R = omega / beta``.  This module implements the packing arithmetic on
numpy arrays, including the ``75316420`` interleaved nibble order that makes
the ``lop3``-based fast dequantization possible (Sec. IV-A(3)).

Conventions
-----------
- Quantized values are unsigned codes in ``[0, 2**bits)``.
- ``pack_values`` packs along the last axis; the number of values must be a
  multiple of the packing ratio (callers pad tiles to Tensor-Core-aligned
  sizes, which guarantees this — that is exactly what Eq. 1's residual block
  sizing is for).
- Value ``j`` of a word lands in bit-field ``j`` ("linear" order) or in
  field ``INTERLEAVE_75316420[j]`` ("interleaved" order).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bit widths the cache supports.
SUPPORTED_BITS = (1, 2, 4, 8)
#: Storage word widths.
SUPPORTED_WORD_BITS = (8, 16, 32)

#: The paper's interleaved in-word order: logical value ``j`` is stored in
#: physical bit-field ``INTERLEAVE_75316420[j]``.  With this order, one
#: ``lop3`` mask extracts the even logical values and one the odd values as
#: two adjacent half-words, which is what the fast INT->FP16 trick needs.
INTERLEAVE_75316420: Tuple[int, ...] = (0, 2, 4, 6, 1, 3, 5, 7)


def _word_dtype(word_bits: int) -> np.dtype:
    if word_bits == 8:
        return np.dtype(np.uint8)
    if word_bits == 16:
        return np.dtype(np.uint16)
    if word_bits == 32:
        return np.dtype(np.uint32)
    raise ValueError(f"unsupported word width {word_bits}; use one of {SUPPORTED_WORD_BITS}")


def packing_ratio(bits: int, word_bits: int = 16) -> int:
    """Values per storage word, ``R = omega / beta`` (Sec. IV-A(2))."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bit width {bits}; use one of {SUPPORTED_BITS}")
    if word_bits not in SUPPORTED_WORD_BITS:
        raise ValueError(f"unsupported word width {word_bits}; use one of {SUPPORTED_WORD_BITS}")
    if word_bits < bits:
        raise ValueError("word width must be at least the value width")
    return word_bits // bits


def _field_order(ratio: int, interleaved: bool) -> np.ndarray:
    """Physical field index for each logical value position within a word.

    The interleaved order places the first half of the logical values in the
    even physical fields and the second half in the odd fields; for a ratio
    of 8 this is exactly :data:`INTERLEAVE_75316420`.  For other ratios
    (e.g. INT2 in 32-bit words) the same even/odd construction generalizes
    while preserving the one-mask-per-half extraction property.
    """
    if not interleaved:
        return np.arange(ratio)
    if ratio < 2 or ratio % 2 != 0:
        return np.arange(ratio)
    half = ratio // 2
    order = np.empty(ratio, dtype=np.int64)
    order[:half] = np.arange(0, ratio, 2)
    order[half:] = np.arange(1, ratio, 2)
    return order


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
    # per-block reference cache and the hot-path benchmark baseline both
    # run through it.  The batched flush packs through the faster
    # :func:`gather_pack_into`, which is unit-tested bit-equal to it.)
    grouped = values.astype(dtype).reshape(*values.shape[:-1], -1, ratio)
    fields = _field_order(ratio, interleaved)
    shifts = (fields * bits).astype(dtype)
    return np.bitwise_or.reduce(grouped << shifts, axis=-1)


def gather_pack_into(
    codes_flat: np.ndarray,
    flat_index: np.ndarray,
    bits: int,
    out: np.ndarray,
    word_bits: int = 16,
    interleaved: bool = False,
    scratch: Tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fused fragment gather + word pack: ``pack_values(take(codes))``.

    ``codes_flat`` is ``(..., n_values)`` uint8 codes (assumed in-range —
    the quantizer's clip guarantees it), ``flat_index`` the fragment-order
    gather offsets into the last axis (``block_fragment_offsets``), and
    ``out`` a preallocated ``(..., n_values // R)`` word tensor.  Instead
    of materializing the full fragment-ordered code tensor and then
    packing it, each of the ``R`` word fields is gathered and OR-merged
    directly into ``out`` — the temporaries are word-count sized, which
    is what keeps the chunked prefill flush inside the cache.

    ``scratch`` optionally supplies reusable ``(uint8, word)`` buffers of
    ``out``'s shape.  Returns ``out``.  Bit-identical to the unfused
    ``pack_values(np.take(codes_flat, flat_index, axis=-1), ...)``.
    """
    ratio = packing_ratio(bits, word_bits)
    dtype = _word_dtype(word_bits)
    if flat_index.size % ratio != 0:
        raise ValueError("flat_index length must be a multiple of the packing ratio")
    if out.shape != (*codes_flat.shape[:-1], flat_index.size // ratio) or out.dtype != dtype:
        raise ValueError("out must be a word tensor of the packed shape")
    if scratch is None:
        scratch = (np.empty(out.shape, np.uint8), np.empty(out.shape, dtype))
    taken, shifted = scratch
    fields = _field_order(ratio, interleaved)
    for j in range(ratio):
        # Word w is fed by fragment positions w*R + j; slicing the offsets
        # by stride R turns the scatter into R word-sized gathers.
        np.take(codes_flat, flat_index[j::ratio], axis=-1, out=taken)
        shift = dtype.type(int(fields[j]) * bits)
        if j == 0:
            np.left_shift(taken, shift, out=out, dtype=dtype)
        else:
            np.left_shift(taken, shift, out=shifted, dtype=dtype)
            np.bitwise_or(out, shifted, out=out)
    return out


def unpack_values(
    words: np.ndarray,
    bits: int,
    word_bits: int = 16,
    interleaved: bool = False,
) -> np.ndarray:
    """Inverse of :func:`pack_values`; expands the last axis by the ratio."""
    ratio = packing_ratio(bits, word_bits)
    dtype = _word_dtype(word_bits)
    words = np.asarray(words).astype(dtype, copy=False)
    fields = _field_order(ratio, interleaved)
    mask = dtype.type((1 << bits) - 1)
    shifts = (fields * bits).astype(dtype)
    out = ((words[..., None] >> shifts) & mask).astype(np.uint8)
    return out.reshape(*words.shape[:-1], -1)


def packed_nbytes(n_values: int, bits: int, word_bits: int = 16) -> int:
    """Storage bytes for ``n_values`` codes (must divide the ratio evenly)."""
    ratio = packing_ratio(bits, word_bits)
    if n_values % ratio != 0:
        raise ValueError("n_values must be a multiple of the packing ratio")
    return (n_values // ratio) * (word_bits // 8)
