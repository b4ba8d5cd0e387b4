"""Low-level bit packing and unpacking.

BitDecoding stores a quantized KV cache as ``beta``-bit unsigned integers
packed into ``omega``-bit storage words (Sec. IV-A(2)); the *packing ratio*
is ``R = omega / beta``.  This module implements the packing arithmetic on
numpy arrays, including the ``75316420`` interleaved nibble order that makes
the ``lop3``-based fast dequantization possible (Sec. IV-A(3)).

Conventions
-----------
- Quantized values are unsigned codes in ``[0, 2**bits)``.
- :func:`gather_pack_into` packs along the last axis; the number of values
  must be a multiple of the packing ratio (callers pad tiles to
  Tensor-Core-aligned sizes, which guarantees this — that is exactly what
  Eq. 1's residual block sizing is for).
- Value ``j`` of a word lands in bit-field ``j`` ("linear" order) or, at
  8 values per word, in field ``(0, 2, 4, 6, 1, 3, 5, 7)[j]``
  ("interleaved" order, :func:`_field_order`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Bit widths the cache supports.
SUPPORTED_BITS = (1, 2, 4, 8)
#: Storage word widths.
SUPPORTED_WORD_BITS = (8, 16, 32)


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
    of 8 this is the paper's ``75316420`` order ``(0, 2, 4, 6, 1, 3, 5, 7)``.
    With it, one ``lop3`` mask extracts the even logical values and one the
    odd values as two adjacent half-words, which is what the fast
    INT->FP16 trick needs.  For other ratios
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


def gather_pack_into(
    codes_flat: np.ndarray,
    flat_index: np.ndarray,
    bits: int,
    out: np.ndarray,
    word_bits: int = 16,
    interleaved: bool = False,
    scratch: Tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fused fragment gather + word pack of uint8 codes into storage words.

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
    gather-then-pack spec (``pack_values(np.take(codes_flat, flat_index,
    axis=-1), ...)`` in ``tests/reference_cache.py``).
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
    """Unpack storage words back to uint8 codes; expands the last axis by the ratio."""
    ratio = packing_ratio(bits, word_bits)
    dtype = _word_dtype(word_bits)
    words = np.asarray(words).astype(dtype, copy=False)
    fields = _field_order(ratio, interleaved)
    mask = dtype.type((1 << bits) - 1)
    shifts = (fields * bits).astype(dtype)
    out = ((words[..., None] >> shifts) & mask).astype(np.uint8)
    return out.reshape(*words.shape[:-1], -1)
