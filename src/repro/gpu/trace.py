"""Operation traces emitted by kernel implementations.

A kernel in this reproduction does two things: it computes its numerics in
numpy, and it *counts* the work a real CUDA kernel would have issued while
walking the same tile/warp structure.  Those counts live in an
:class:`OpTrace`.  The GPU model (:mod:`repro.gpu.kernel`) turns a trace into
time; the profiler (:mod:`repro.gpu.profiler`) turns it into Nsight-style
utilization percentages.

Counters are floats because kernels frequently record amortized per-value
costs (e.g. "0.75 lop3 ops per dequantized value").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable


class AccessPattern(Enum):
    """Global-memory access pattern, with its achieved-bandwidth efficiency.

    The value is the fraction of peak bandwidth a stream of such accesses
    sustains: fully coalesced 128B transactions reach peak, strided accesses
    waste half of each transaction, scattered (random) accesses waste 3/4.
    """

    COALESCED = 1.0
    STRIDED = 0.5
    SCATTERED = 0.25


@dataclass
class OpTrace:
    """Kernel-total operation counts.

    Global-memory counters keep both the *raw* bytes the kernel semantically
    moves and the *effective* bytes after access-pattern inflation
    (raw / pattern efficiency); the effective figure is what the bandwidth
    model charges.
    """

    # --- global memory ----------------------------------------------------
    gmem_read_bytes: float = 0.0
    gmem_write_bytes: float = 0.0
    gmem_read_bytes_effective: float = 0.0
    gmem_write_bytes_effective: float = 0.0

    # --- L2-resident traffic (reuse hits served without DRAM) --------------
    l2_bytes: float = 0.0

    # --- shared memory ------------------------------------------------------
    smem_bytes: float = 0.0
    smem_bytes_effective: float = 0.0  # inflated by bank-conflict factor

    # --- compute pipes ------------------------------------------------------
    #: Tensor-Core FLOPs by precision ("fp16", "fp8", "fp4").
    tc_flops: Dict[str, float] = field(default_factory=dict)
    #: CUDA-core floating-point FLOPs (FMA counts as 2).
    fma_flops: float = 0.0
    #: Integer / logic ops (``lop3``, shifts, masks, compares).
    alu_ops: float = 0.0
    #: Slow conversion ops (``cvt`` / ``static_cast`` int->half).
    cvt_ops: float = 0.0
    #: Special-function-unit ops (``exp``, ``rcp``).
    sfu_ops: float = 0.0
    #: Warp-shuffle ops (charged to the ALU pipe but counted separately).
    shfl_ops: float = 0.0
    #: ``ldmatrix`` issues (their smem traffic is recorded via smem counters).
    ldmatrix_ops: float = 0.0

    # --- synchronization ----------------------------------------------------
    #: ``__syncthreads`` executions per block (serial within a block).
    barriers_per_block: float = 0.0

    # --- recording helpers --------------------------------------------------

    def gmem_read(self, nbytes: float, pattern: AccessPattern = AccessPattern.COALESCED) -> None:
        """Record a global-memory read of ``nbytes`` with an access pattern."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.gmem_read_bytes += nbytes
        self.gmem_read_bytes_effective += nbytes / pattern.value

    def gmem_write(self, nbytes: float, pattern: AccessPattern = AccessPattern.COALESCED) -> None:
        """Record a global-memory write of ``nbytes`` with an access pattern."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.gmem_write_bytes += nbytes
        self.gmem_write_bytes_effective += nbytes / pattern.value

    def l2_read(self, nbytes: float) -> None:
        """Record traffic served from L2 (e.g. broadcast Q, page tables)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.l2_bytes += nbytes

    def smem_traffic(self, nbytes: float, conflict_factor: float = 1.0) -> None:
        """Record shared-memory traffic; ``conflict_factor`` >= 1 replays."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if conflict_factor < 1.0:
            raise ValueError("conflict_factor must be >= 1")
        self.smem_bytes += nbytes
        self.smem_bytes_effective += nbytes * conflict_factor

    def tensor_core(self, flops: float, precision: str = "fp16") -> None:
        """Record Tensor-Core FLOPs at a given compute precision."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        self.tc_flops[precision] = self.tc_flops.get(precision, 0.0) + flops

    # --- algebra -------------------------------------------------------------

    def merge(self, other: "OpTrace") -> "OpTrace":
        """Accumulate ``other`` into ``self`` (in place); returns ``self``."""
        self.gmem_read_bytes += other.gmem_read_bytes
        self.gmem_write_bytes += other.gmem_write_bytes
        self.gmem_read_bytes_effective += other.gmem_read_bytes_effective
        self.gmem_write_bytes_effective += other.gmem_write_bytes_effective
        self.l2_bytes += other.l2_bytes
        self.smem_bytes += other.smem_bytes
        self.smem_bytes_effective += other.smem_bytes_effective
        for precision, flops in other.tc_flops.items():
            self.tc_flops[precision] = self.tc_flops.get(precision, 0.0) + flops
        self.fma_flops += other.fma_flops
        self.alu_ops += other.alu_ops
        self.cvt_ops += other.cvt_ops
        self.sfu_ops += other.sfu_ops
        self.shfl_ops += other.shfl_ops
        self.ldmatrix_ops += other.ldmatrix_ops
        self.barriers_per_block += other.barriers_per_block
        return self

    def scaled(self, factor: float) -> "OpTrace":
        """Return a new trace with every counter multiplied by ``factor``.

        ``barriers_per_block`` scales too: scaling a per-tile trace by the
        number of tiles a block processes multiplies the barriers the block
        executes.
        """
        if factor < 0:
            raise ValueError("factor must be non-negative")
        out = OpTrace(
            gmem_read_bytes=self.gmem_read_bytes * factor,
            gmem_write_bytes=self.gmem_write_bytes * factor,
            gmem_read_bytes_effective=self.gmem_read_bytes_effective * factor,
            gmem_write_bytes_effective=self.gmem_write_bytes_effective * factor,
            l2_bytes=self.l2_bytes * factor,
            smem_bytes=self.smem_bytes * factor,
            smem_bytes_effective=self.smem_bytes_effective * factor,
            tc_flops={k: v * factor for k, v in self.tc_flops.items()},
            fma_flops=self.fma_flops * factor,
            alu_ops=self.alu_ops * factor,
            cvt_ops=self.cvt_ops * factor,
            sfu_ops=self.sfu_ops * factor,
            shfl_ops=self.shfl_ops * factor,
            ldmatrix_ops=self.ldmatrix_ops * factor,
            barriers_per_block=self.barriers_per_block * factor,
        )
        return out

    def without(self, sub: "OpTrace") -> "OpTrace":
        """Return a copy with ``sub``'s counts removed (clamped at zero).

        Used for what-if profiling (e.g. Fig. 4b's "W/O Dequant" bar: the
        same kernel minus its dequantization instructions).
        """
        out = self.scaled(1.0)
        out.gmem_read_bytes = max(0.0, out.gmem_read_bytes - sub.gmem_read_bytes)
        out.gmem_write_bytes = max(0.0, out.gmem_write_bytes - sub.gmem_write_bytes)
        out.gmem_read_bytes_effective = max(
            0.0, out.gmem_read_bytes_effective - sub.gmem_read_bytes_effective
        )
        out.gmem_write_bytes_effective = max(
            0.0, out.gmem_write_bytes_effective - sub.gmem_write_bytes_effective
        )
        out.l2_bytes = max(0.0, out.l2_bytes - sub.l2_bytes)
        out.smem_bytes = max(0.0, out.smem_bytes - sub.smem_bytes)
        out.smem_bytes_effective = max(0.0, out.smem_bytes_effective - sub.smem_bytes_effective)
        for precision, flops in sub.tc_flops.items():
            out.tc_flops[precision] = max(0.0, out.tc_flops.get(precision, 0.0) - flops)
        out.fma_flops = max(0.0, out.fma_flops - sub.fma_flops)
        out.alu_ops = max(0.0, out.alu_ops - sub.alu_ops)
        out.cvt_ops = max(0.0, out.cvt_ops - sub.cvt_ops)
        out.sfu_ops = max(0.0, out.sfu_ops - sub.sfu_ops)
        out.shfl_ops = max(0.0, out.shfl_ops - sub.shfl_ops)
        out.ldmatrix_ops = max(0.0, out.ldmatrix_ops - sub.ldmatrix_ops)
        return out

    @staticmethod
    def merged(traces: Iterable["OpTrace"]) -> "OpTrace":
        """Merge an iterable of traces into a fresh one."""
        out = OpTrace()
        for trace in traces:
            out.merge(trace)
        return out

    # --- summaries -------------------------------------------------------------

    @property
    def total_tc_flops(self) -> float:
        return sum(self.tc_flops.values())

    @property
    def total_gmem_bytes(self) -> float:
        return self.gmem_read_bytes + self.gmem_write_bytes

    @property
    def total_gmem_bytes_effective(self) -> float:
        return self.gmem_read_bytes_effective + self.gmem_write_bytes_effective

    def is_empty(self) -> bool:
        """True when no work has been recorded."""
        return (
            self.total_gmem_bytes == 0
            and self.l2_bytes == 0
            and self.smem_bytes == 0
            and self.total_tc_flops == 0
            and self.fma_flops == 0
            and self.alu_ops == 0
            and self.cvt_ops == 0
            and self.sfu_ops == 0
            and self.shfl_ops == 0
            and self.ldmatrix_ops == 0
        )
