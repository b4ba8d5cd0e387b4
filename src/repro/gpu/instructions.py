"""Instruction-level cost helpers.

Kernel implementations translate value-level events ("dequantized N INT4
values via the lop3 path", "quantized and packed N values", "ran softmax on
an ``M x N`` score tile") into pipe-level op counts using the helpers here.
The per-value coefficients encode the PTX sequences the paper discusses:

- **lop3 fast dequant** (Kim et al. [14], BitDecoding Sec. IV-A(3)): packed
  INT4 values are mapped through the ``75316420`` interleaved pattern so one
  ``lop3.b32`` extracts two values; applying scale/zero is one ``HFMA2``.
- **static_cast dequant**: the naive path shifts, masks, and runs ``cvt``
  per value; ``cvt`` issues on the slow conversion pipe.
- **quantize + pack**: min/max reductions (compares), ``__shfl_xor_sync``
  butterflies for the warp-level reduction, one FMA per value for the affine
  map, and shift/or packing.

The exact coefficients are model parameters; tests pin their *relative*
ordering (lop3 path beats cvt path; INT2 unpack costs more logic than INT4).
"""

from __future__ import annotations

from repro.gpu.trace import OpTrace

# --------------------------------------------------------------------------
# Dequantization cost models
# --------------------------------------------------------------------------

#: Per-value pipe costs of the lop3 fast-dequant path, keyed by bit width.
#: ``alu``: lop3/shift ops; ``fma``: scale/zero FLOPs (one HFMA2 = 2 FLOPs).
_LOP3_DEQUANT_COST = {
    8: {"alu": 0.50, "fma": 2.0, "cvt": 0.0},
    4: {"alu": 0.75, "fma": 2.0, "cvt": 0.0},
    2: {"alu": 1.25, "fma": 2.0, "cvt": 0.0},
    1: {"alu": 1.50, "fma": 2.0, "cvt": 0.0},
}

#: Per-value pipe costs of the naive static_cast path.
_CVT_DEQUANT_COST = {
    8: {"alu": 0.5, "fma": 2.0, "cvt": 1.0},
    4: {"alu": 1.0, "fma": 2.0, "cvt": 1.0},
    2: {"alu": 1.5, "fma": 2.0, "cvt": 1.0},
    1: {"alu": 2.0, "fma": 2.0, "cvt": 1.0},
}


def dequant_ops(n_values: float, bits: int, method: str = "lop3") -> OpTrace:
    """Trace for dequantizing ``n_values`` packed ``bits``-wide integers.

    ``method`` is ``"lop3"`` (the paper's fast path, Sec. IV-A(3)) or
    ``"cvt"`` (naive ``static_cast``).
    """
    table = _LOP3_DEQUANT_COST if method == "lop3" else _CVT_DEQUANT_COST
    if method not in ("lop3", "cvt"):
        raise ValueError(f"unknown dequant method {method!r}")
    if bits not in table:
        raise ValueError(f"unsupported dequant bit width {bits}")
    cost = table[bits]
    return OpTrace(
        alu_ops=cost["alu"] * n_values,
        fma_flops=cost["fma"] * n_values,
        cvt_ops=cost["cvt"] * n_values,
    )


def quant_pack_ops(n_values: float, bits: int, group_size: int) -> OpTrace:
    """Trace for online quantization + packing of ``n_values`` FP16 values.

    Covers the Residual Kernel's work: per-group min/max (thread-level
    compares + warp ``shfl_xor`` butterfly), the affine quantization FMA,
    rounding, and shift/or packing into words.
    """
    if bits not in (1, 2, 4, 8):
        raise ValueError(f"unsupported quantization bit width {bits}")
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    trace = OpTrace()
    # min/max scan: two compares per value.
    trace.alu_ops += 2.0 * n_values
    # warp butterfly reduction: 5 shfl levels x 2 (min and max) per group
    # that spans a warp; amortized per value.
    n_groups = n_values / group_size
    trace.shfl_ops += 10.0 * n_groups
    # scale/zero computation: a handful of FLOPs per group.
    trace.fma_flops += 8.0 * n_groups
    # affine map + round per value.
    trace.fma_flops += 2.0 * n_values
    trace.alu_ops += 1.0 * n_values  # shift/or packing
    return trace


def softmax_ops(n_scores: float, n_rows: float, coop_warps: int = 1) -> OpTrace:
    """Trace for an online-softmax update over ``n_scores`` logits.

    ``n_rows`` is the number of softmax rows (for rowmax/rescale traffic),
    ``coop_warps`` the number of warps participating in the cross-warp
    reduction of Algorithm 1 (adds ``shfl`` + shared-memory round trips).
    """
    trace = OpTrace(
        alu_ops=1.0 * n_scores,  # running-max compares
        sfu_ops=1.0 * n_scores,  # exp
        fma_flops=3.0 * n_scores,  # subtract max, scale, accumulate
        shfl_ops=5.0 * n_rows,  # intra-warp rowmax butterfly
    )
    if coop_warps > 1:
        # Inter-warp reduction via the sTMP buffer: one float per warp per
        # row written + read back (Algorithm 1, line 2).
        trace.smem_traffic(4.0 * n_rows * coop_warps * 2)
        trace.shfl_ops += 5.0 * n_rows
    return trace


def p_requant_ops(n_values: float) -> OpTrace:
    """Trace for on-the-fly re-quantization of the probability matrix P.

    Blackwell's native-FP4 path must quantize ``P = softmax(QK^T)`` before
    the second MMA (Sec. III-B, Challenge 2).  Cost: rowmax reuse plus one
    FMA + round/pack per value.
    """
    return OpTrace(fma_flops=2.0 * n_values, alu_ops=1.0 * n_values)


def rescale_accum_ops(n_values: float, trace: OpTrace) -> OpTrace:
    """Record the `diag(exp(m_old - m_new)) @ O` accumulator rescale into
    ``trace`` and return it.  Kernels record it straight into their
    launch trace: it has no subtrace of its own."""
    trace.fma_flops += 2.0 * n_values
    return trace
