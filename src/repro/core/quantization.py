"""KV-cache quantization: integer (INT8/4/2/1) and micro-scaling FP4.

BitDecoding must stay *general across quantization algorithms*
(Challenge 3): popular methods disagree on the Key tensor's scaling
granularity —

- **channel-wise (KC)**: one (scale, zero) per hidden channel, with the
  group running along the sequence dimension (KIVI, KVQuant style).  Best
  accuracy for Keys, whose outliers are per-channel.
- **tensor-wise (KT)**: one (scale, zero) per token, with the group running
  along the hidden dimension (KVQuant/Atom per-token style).

Values are always quantized tensor-wise (per token).  Following the paper's
Residual Kernel, scale and zero-point are stored together as a ``half2``
(both cast to FP16) so one load plus one ``HFMA2`` performs dequantization.

Blackwell's native formats are also provided: **MXFP4** (E2M1 element, one
shared power-of-two E8M0 scale per 32-element block) and **NVFP4** (E2M1
element, FP8-E4M3 scale per 16-element block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Key-scaling granularities (Sec. V-B): channel-wise groups run along
#: seq_len; tensor-wise groups run along the hidden dimension.
GRANULARITIES = ("channel", "tensor")

#: Representable magnitudes of the FP4 E2M1 element format.
E2M1_VALUES = np.asarray([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0], dtype=np.float32)
E2M1_MAX = 6.0

#: Largest normal magnitude of FP8 E4M3 (NVFP4 block scale format).
E4M3_MAX = 448.0


@dataclass(frozen=True)
class QuantScheme:
    """Configuration of one integer quantization scheme."""

    bits: int
    granularity: str  # "channel" or "tensor"
    group_size: int

    def __post_init__(self) -> None:
        if self.bits not in (1, 2, 4, 8):
            raise ValueError(f"unsupported bit width {self.bits}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}"
            )
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")

    @property
    def short_name(self) -> str:
        """Paper-style tag, e.g. ``KC-4`` / ``KT-2``."""
        prefix = "KC" if self.granularity == "channel" else "KT"
        return f"{prefix}-{self.bits}"


@dataclass
class QuantParams:
    """Scale/zero-point metadata for one quantized tensor.

    ``scale`` and ``zero`` have one entry per group and are stored in FP16,
    emulating the paper's compact ``half2`` layout.  ``axis`` is the tensor
    axis the group runs along.
    """

    scale: np.ndarray
    zero: np.ndarray
    axis: int
    group_size: int
    bits: int

    @property
    def nbytes(self) -> float:
        """Metadata bytes (half2 per group)."""
        return self.scale.size * 2 + self.zero.size * 2


def _grouped_view(x: np.ndarray, axis: int, group_size: int) -> Tuple[np.ndarray, int]:
    """Split ``axis`` into ``(n_groups, group_size)`` as a zero-copy view.

    Splitting an axis in place never transposes memory, so group reductions
    and broadcasts stay contiguous no matter which axis the groups run
    along — the batched cache quantizes 10^8-element tensors through this.
    Returns the reshaped view and the (normalized) group axis position.
    """
    axis = axis % x.ndim
    n = x.shape[axis]
    if n % group_size != 0:
        raise ValueError(f"axis length {n} is not a multiple of group size {group_size}")
    shape = x.shape[:axis] + (n // group_size, group_size) + x.shape[axis + 1 :]
    return x.reshape(shape), axis


def _quantize_chunk(
    x: np.ndarray,
    bits: int,
    axis: int,
    group_size: int,
    codes_out: Optional[np.ndarray] = None,
    affine: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Shared quantization core: codes plus *raw-layout* group metadata.

    Returns ``(codes, scale, zero, group_axis)`` where ``scale``/``zero``
    keep the group axis in its natural (reduction) position — callers that
    publish :class:`QuantParams` apply the moveaxis themselves.  ``x`` may
    be FP16 or FP32: the group min/max are exact under the monotone
    FP16→FP32 cast and the affine ufuncs upcast on the fly, so skipping
    the whole-tensor FP32 copy changes no bit of the output.  This is the
    unit the chunked prefill flush loops over (quantization groups never
    cross a residual block, so per-chunk statistics are self-contained);
    ``codes_out``/``affine`` let that loop reuse its buffers.  ``affine``
    may alias ``x`` (the affine map is element-wise, so in-place is exact);
    ``x`` is then destroyed.
    """
    if bits not in (1, 2, 4, 8):
        raise ValueError(f"unsupported bit width {bits}")
    x = np.asarray(x)
    if x.dtype not in (np.float16, np.float32):
        x = x.astype(np.float32)
    axis = axis % x.ndim
    grouped, ax = _grouped_view(x, axis, group_size)
    gmin = grouped.min(axis=ax + 1).astype(np.float32)
    gmax = grouped.max(axis=ax + 1).astype(np.float32)
    # NaN/Inf propagate into the group min/max, so checking the (small)
    # reductions detects every poisoned value without another full pass.
    if x.size and not (np.all(np.isfinite(gmin)) and np.all(np.isfinite(gmax))):
        raise ValueError(
            "quantize received non-finite values; a NaN/Inf in K or V would "
            "poison a whole quantization group's scale"
        )
    levels = (1 << bits) - 1
    scale = (gmax - gmin) / levels
    # Guard degenerate all-equal groups; scale 0 would divide by zero.
    scale = np.where(scale <= 0, 1.0, scale)
    zero = gmin
    # half2 storage: metadata lives in FP16.
    scale = scale.astype(np.float16).astype(np.float32)
    scale = np.where(scale <= 0, np.float32(6e-5), scale)  # fp16 underflow guard
    zero = zero.astype(np.float16).astype(np.float32)

    expand = np.expand_dims(scale, ax + 1)
    expand_zero = np.expand_dims(zero, ax + 1)
    # The affine map runs through one preallocated buffer (no per-op
    # temporaries); this path is memory-bound at cache scale.
    if affine is None or affine.shape != x.shape:
        affine = np.empty(x.shape, dtype=np.float32)
    affine_grouped = affine.reshape(grouped.shape)
    np.subtract(grouped, expand_zero, out=affine_grouped)
    np.divide(affine_grouped, expand, out=affine_grouped)
    np.rint(affine_grouped, out=affine_grouped)
    np.clip(affine_grouped, 0, levels, out=affine_grouped)
    if codes_out is None:
        codes = affine.astype(np.uint8)
    else:
        codes = codes_out
        codes[...] = affine  # integral after rint; the uint8 cast is exact
    return codes, scale, zero, ax


def quantize(
    x: np.ndarray, bits: int, axis: int, group_size: int
) -> Tuple[np.ndarray, QuantParams]:
    """Asymmetric uniform quantization along ``axis`` in groups.

    Returns unsigned codes (same shape as ``x``) and :class:`QuantParams`.
    The affine map is ``code = round((x - zero) / scale)`` clamped to
    ``[0, 2**bits - 1]``; ``scale``/``zero`` are rounded to FP16 *before*
    quantization, exactly as a kernel storing ``half2`` metadata would.

    ``x`` may have any rank: the group statistics reduce over ``axis`` in
    one batched pass, so a whole ``[batch, hkv, n_blocks, N_r, d]`` cache
    quantizes in a single call.
    """
    x = np.asarray(x)
    axis = axis % max(x.ndim, 1)
    codes, scale, zero, ax = _quantize_chunk(x, bits, axis, group_size)
    # Public metadata layout keeps the group axis last (the ``half2``
    # stream the kernels read); the heavy per-value math above never
    # transposes, only this small array does.
    params = QuantParams(
        scale=np.moveaxis(scale, ax, -1),
        zero=np.moveaxis(zero, ax, -1),
        axis=axis,
        group_size=group_size,
        bits=bits,
    )
    return codes, params


def dequantize(
    codes: np.ndarray, params: QuantParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse affine map: ``x_hat = code * scale + zero`` (one HFMA2).

    Like :func:`quantize`, fully batched: the per-group scale/zero broadcast
    against a zero-copy grouped view — no transposes of the code tensor.
    ``out`` (FP32, the codes' shape, any strides) receives the values in
    place of a fresh array; the chunked cache dequant writes each chunk
    straight into its rows of the reconstruction this way.
    """
    codes = np.asarray(codes)
    grouped, ax = _grouped_view(codes, params.axis, params.group_size)
    scale = np.expand_dims(np.moveaxis(params.scale, -1, ax), ax + 1)
    zero = np.expand_dims(np.moveaxis(params.zero, -1, ax), ax + 1)
    # Write through a preallocated buffer: the reconstruction's memory
    # layout must not depend on the codes' strides, so that every caller
    # (per-block or batched) hands the downstream GEMMs identical row-major
    # matrices and decode stays bit-reproducible across cache layouts.
    if out is None:
        out = np.empty(codes.shape, dtype=np.float32)
    elif out.shape != codes.shape or out.dtype != np.float32:
        raise ValueError(f"out must be FP32 of the codes' shape {codes.shape}")
    out_grouped = out.reshape(grouped.shape)
    np.multiply(grouped, scale, out=out_grouped)
    np.add(out_grouped, zero, out=out_grouped)
    return out


def quantize_key(
    k: np.ndarray, scheme: QuantScheme, seq_axis: int = 0, channel_axis: int = -1
) -> Tuple[np.ndarray, QuantParams]:
    """Quantize a Key block ``(..., seq, ..., d)`` under a scheme.

    Channel-wise (KC): groups run along the sequence axis (one scale per
    channel per ``group_size`` tokens).  Tensor-wise (KT): groups run along
    the hidden axis (one scale per token per ``group_size`` channels).
    """
    axis = seq_axis if scheme.granularity == "channel" else channel_axis
    return quantize(k, scheme.bits, axis, scheme.group_size)


# ---------------------------------------------------------------------------
# Micro-scaling FP4 (Blackwell native formats)
# ---------------------------------------------------------------------------


@dataclass
class Fp4Params:
    """Block scales of an MXFP4/NVFP4 tensor (one scale per block)."""

    scale: np.ndarray
    axis: int
    block_size: int
    fmt: str  # "mxfp4" or "nvfp4"

    @property
    def nbytes(self) -> float:
        return float(self.scale.size)  # E8M0 and E4M3 are 1 byte each


def _quantize_e2m1(x: np.ndarray) -> np.ndarray:
    """Round to the nearest representable E2M1 value (sign preserved)."""
    sign = np.sign(x)
    mag = np.abs(x)
    idx = np.argmin(np.abs(mag[..., None] - E2M1_VALUES), axis=-1)
    return sign * E2M1_VALUES[idx]


def quantize_fp4(x: np.ndarray, fmt: str = "mxfp4", axis: int = -1) -> Tuple[np.ndarray, Fp4Params]:
    """Quantize to a micro-scaling FP4 format.

    MXFP4: block 32, power-of-two (E8M0) scale.  NVFP4: block 16, FP8-E4M3
    scale.  Returns the *dequantized representable values* (what the tensor
    cores compute with) plus block scales; benchmarks use the scales' byte
    counts for traffic, numerics use the values.
    """
    if fmt == "mxfp4":
        block = 32
    elif fmt == "nvfp4":
        block = 16
    else:
        raise ValueError(f"unknown fp4 format {fmt!r}; use 'mxfp4' or 'nvfp4'")
    x = np.asarray(x, dtype=np.float32)
    axis = axis % x.ndim
    n = x.shape[axis]
    if n % block != 0:
        raise ValueError(f"axis length {n} not a multiple of block size {block}")

    moved = np.moveaxis(x, axis, -1)
    grouped = moved.reshape(*moved.shape[:-1], n // block, block)
    amax = np.abs(grouped).max(axis=-1)
    raw_scale = amax / E2M1_MAX
    raw_scale = np.where(raw_scale <= 0, 1.0, raw_scale)
    if fmt == "mxfp4":
        # E8M0: power-of-two scale, rounded up so the block max stays
        # representable.
        scale = 2.0 ** np.ceil(np.log2(raw_scale))
    else:
        # E4M3: round to FP8; emulate with the nearest value of limited
        # mantissa (3 bits) and clamp to the format's range.
        mant, exp = np.frexp(raw_scale)
        mant = np.round(mant * 16) / 16  # 1 sign-free mantissa step of 2^-4
        scale = np.clip(np.ldexp(mant, exp), 2.0**-9, E4M3_MAX)

    q = _quantize_e2m1(grouped / scale[..., None]) * scale[..., None]
    out = np.moveaxis(q.reshape(moved.shape), -1, axis)
    params = Fp4Params(scale=scale.astype(np.float32), axis=axis, block_size=block, fmt=fmt)
    return out, params
