"""Kernel time model: trace + launch configuration -> seconds.

``simulate_kernel`` computes per-resource busy times from an
:class:`~repro.gpu.trace.OpTrace` and combines them according to an overlap
(hide) factor:

``t_exec = max(resources) + (sum(resources) - max(resources)) * (1 - hide)``

- ``hide = 1``: a perfectly software-pipelined kernel; the slowest resource
  bounds execution (roofline behaviour).
- ``hide = 0``: fully serialized phases (e.g. the ``Wn = 1`` layout of
  Table III, or a non-fused kernel chain).

Launch overhead, barrier serialization and the legacy-instruction-path
penalty (SM80 code on Hopper/Blackwell) are added on top.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional

from repro.gpu.arch import ArchSpec
from repro.gpu.memory import dram_time, l2_time, smem_time
from repro.gpu.sm import Occupancy, occupancy
from repro.gpu.trace import OpTrace

#: Cycles one ``__syncthreads`` costs the block that executes it.
BARRIER_CYCLES = 30.0

#: Instruction paths a kernel can compile for.
INSTRUCTION_PATHS = ("sm80", "sm90", "blackwell_fp4")

#: Entries one latency memo holds before it is cleared.  A serving trace
#: adds one entry per distinct decode shape to each of a system's geometry
#: memo and group memo (a few thousand) and one per residual class to
#: BitDecoding's residual memo (a few dozen); a full memo is ~10 MB.
LATENCY_MEMO_CAP = 1 << 16


@dataclass
class KernelLaunch:
    """Everything the model needs about one kernel launch."""

    name: str
    trace: OpTrace
    grid_blocks: int
    warps_per_block: int
    smem_per_block_bytes: int = 0
    regs_per_thread: int = 64
    #: The launch's occupancy when it was resolved at build time (the same
    #: :func:`~repro.gpu.sm.occupancy` of the four fields above); None
    #: lets :func:`simulate_kernel` resolve it.
    occupancy: Optional[Occupancy] = None
    #: Overlap quality in [0, 1]; see module docstring.
    hide_factor: float = 1.0
    #: Which instruction path the kernel was built for.
    instruction_path: str = "sm80"
    #: Number of host-side launches this represents (split-KV adds a
    #: reduction launch; non-fused systems launch many kernels).
    launches: int = 1
    #: Standalone sub-traces for attribution (e.g. "dequant", "softmax");
    #: their counts are *already included* in ``trace``.
    subtraces: Dict[str, OpTrace] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.hide_factor <= 1.0:
            raise ValueError("hide_factor must be in [0, 1]")
        if self.instruction_path not in INSTRUCTION_PATHS:
            raise ValueError(
                f"unknown instruction path {self.instruction_path!r}; "
                f"expected one of {INSTRUCTION_PATHS}"
            )
        if self.launches < 1:
            raise ValueError("launches must be >= 1")


@dataclass
class KernelResult:
    """Simulated execution of one kernel launch."""

    name: str
    time_s: float
    launch_time_s: float
    exec_time_s: float
    resource_times: Dict[str, float]
    occupancy: Occupancy
    arch_name: str
    #: Computes :attr:`subtrace_times`; bound by :func:`simulate_kernel`.
    _subtrace_times: Callable[[], Dict[str, float]] = field(default=dict, repr=False, compare=False)

    @functools.cached_property
    def subtrace_times(self) -> Dict[str, float]:
        """Standalone times of the launch's subtraces (same occupancy/overlap).

        Computed on first read: step pricing only needs :attr:`time_s`, so
        it never pays the extra resource pass per subtrace.
        """
        return self._subtrace_times()

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def bound_by(self) -> str:
        """Name of the resource with the largest busy time."""
        if not self.resource_times:
            return "none"
        return max(self.resource_times, key=self.resource_times.get)


def _tc_peak(arch: ArchSpec, launch: KernelLaunch, precision: str) -> float:
    """Tensor-core peak FLOP/s for this launch."""
    return arch.tc_flops_per_s(precision)


def _path_efficiency(arch: ArchSpec, launch: KernelLaunch) -> float:
    """Whole-kernel throughput factor for the chosen instruction path.

    The paper reports a ~35% throughput penalty for running legacy SM80
    instruction sequences on Hopper (Sec. III-A); kernels built for the
    native path (``sm90`` wgmma/TMA, ``blackwell_fp4``) run at full speed.
    """
    if launch.instruction_path == "sm80" and arch.is_at_least("hopper"):
        return arch.legacy_path_efficiency
    return 1.0


def _resource_times(
    arch: ArchSpec, launch: KernelLaunch, trace: OpTrace, occ: Occupancy
) -> Dict[str, float]:
    """Busy time per hardware resource for one trace under one launch."""
    active_frac = occ.active_sm_fraction
    times: Dict[str, float] = {}

    times["dram"] = dram_time(
        arch, trace.total_gmem_bytes_effective, occ.inflight_warps
    ) if trace.total_gmem_bytes_effective > 0 else 0.0
    times["l2"] = l2_time(arch, trace.l2_bytes, active_frac)
    times["smem"] = smem_time(arch, trace.smem_bytes_effective, active_frac)

    tc_time = 0.0
    for precision, flops in trace.tc_flops.items():
        if flops <= 0:
            continue
        peak = _tc_peak(arch, launch, precision) * max(active_frac, 1.0 / arch.sm_count)
        tc_time += flops / peak
    times["tensor_core"] = tc_time

    frac = max(active_frac, 1.0 / arch.sm_count)
    times["fma"] = trace.fma_flops / (arch.cuda_flops_per_s * frac) if trace.fma_flops else 0.0
    alu = trace.alu_ops + trace.shfl_ops
    times["alu"] = alu / (arch.alu_ops_per_s() * frac) if alu else 0.0
    times["cvt"] = trace.cvt_ops / (arch.cvt_ops_per_s() * frac) if trace.cvt_ops else 0.0
    times["sfu"] = trace.sfu_ops / (arch.sfu_ops_per_s() * frac) if trace.sfu_ops else 0.0
    return times


def _combine(times: Dict[str, float], hide_factor: float) -> float:
    total = sum(times.values())
    if total <= 0:
        return 0.0
    peak = max(times.values())
    return peak + (total - peak) * (1.0 - hide_factor)


def simulate_kernel(arch: ArchSpec, launch: KernelLaunch) -> KernelResult:
    """Simulate one kernel launch on ``arch`` and return timing + breakdown."""
    if launch.instruction_path == "sm90" and not arch.has_wgmma:
        raise ValueError(f"{arch.name} cannot execute the sm90 (wgmma) path")
    if launch.instruction_path == "blackwell_fp4" and not arch.has_native_fp4:
        raise ValueError(f"{arch.name} has no native FP4 tensor cores")

    occ = launch.occupancy
    if occ is None:
        occ = occupancy(
            arch,
            launch.grid_blocks,
            launch.warps_per_block,
            launch.smem_per_block_bytes,
            launch.regs_per_thread,
        )
    path_eff = _path_efficiency(arch, launch)
    times = _resource_times(arch, launch, launch.trace, occ)
    exec_time = _combine(times, launch.hide_factor) / path_eff

    # Barriers serialize within a block; blocks across the machine run them
    # in parallel, so charge per-wave.
    barrier_time = launch.trace.barriers_per_block * BARRIER_CYCLES * arch.cycle_s * occ.waves
    launch_time = launch.launches * arch.kernel_launch_us * 1e-6
    total = launch_time + exec_time + barrier_time

    # Bound now, evaluated on read: a caller editing the launch afterwards
    # cannot change this result.
    subtraces, hide = dict(launch.subtraces), launch.hide_factor

    def subtrace_times() -> Dict[str, float]:
        return {
            tag: _combine(_resource_times(arch, launch, sub, occ), hide) / path_eff
            for tag, sub in subtraces.items()
        }

    return KernelResult(
        name=launch.name,
        time_s=total,
        launch_time_s=launch_time,
        exec_time_s=exec_time + barrier_time,
        resource_times=times,
        occupancy=occ,
        arch_name=arch.name,
        _subtrace_times=subtrace_times,
    )


def remember(memo: Dict[Hashable, float], key: Hashable, value: float) -> float:
    """Store ``value`` under ``key`` and return it; a memo that has reached
    :data:`LATENCY_MEMO_CAP` entries is cleared first."""
    if len(memo) >= LATENCY_MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def memoized_latency(method: Callable[..., float]) -> Callable[..., float]:
    """Exact per-instance memo for a system's ``decode_time_ms(geom, **kwargs)``.

    Every one-launch baseline gets it through :class:`KernelSystem`;
    BitDecoding and ContinuousPacking decorate their own.

    The latency is a pure function of the frozen ``geom``, the keyword
    arguments and the instance's construction-time ``arch``/config, so the
    first call at a shape builds and simulates its launches and every later
    one is a dict lookup returning the same float.  The key is ``geom``
    plus the ``(name, value)`` kwargs pairs sorted by name: kwargs order
    changes nothing and keys that differ in one kwarg never collide.  The
    memo lives on the instance (no process-global state; a fresh instance
    is cold), fills lazily and is cleared when it reaches
    :data:`LATENCY_MEMO_CAP` entries.  A call that raises stores nothing.

    A hit still hashes a dataclass and sorts the kwargs (a few
    microseconds), so BitDecoding keeps two more memos.  The engine's step
    pricing asks :meth:`~repro.core.attention.BitDecoding.group_memo` first,
    which answers a repeated ``(batch, seq_len)`` with one int-pair lookup.
    And a miss here simulates only the launch that reads ``seq_len``: the
    residual launch, which does not, is memoized apart.
    """

    @functools.wraps(method)
    def lookup(self, geom, **kwargs) -> float:
        try:
            memo = self._latency_memo
        except AttributeError:
            memo = self._latency_memo = {}
        key = (geom, *sorted(kwargs.items()))
        value = memo.get(key)
        if value is None:
            value = remember(memo, key, method(self, geom, **kwargs))
        return value

    return lookup


class KernelSystem:
    """A decode system priced as one launch.  A subclass holds ``arch`` and
    defines ``build_launch(geom, **kwargs)``; the base simulates that
    launch and memoizes its latency."""

    def decode_result(self, geom, **kwargs) -> KernelResult:
        return simulate_kernel(self.arch, self.build_launch(geom, **kwargs))

    @memoized_latency
    def decode_time_ms(self, geom, **kwargs) -> float:
        return self.decode_result(geom, **kwargs).time_ms
