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
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.gpu.arch import ArchSpec
from repro.gpu.memory import achieved_dram_bw, l2_bw, smem_bw
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
    #: The :class:`ResourceRates` of that occupancy when the builder keeps
    #: them; None lets :func:`simulate_kernel` derive them.
    rates: Optional["ResourceRates"] = None
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


def _path_efficiency(arch: ArchSpec, instruction_path: str) -> float:
    """Whole-kernel throughput factor for the chosen instruction path.

    The paper reports a ~35% throughput penalty for running legacy SM80
    instruction sequences on Hopper (Sec. III-A); kernels built for the
    native path (``sm90`` wgmma/TMA, ``blackwell_fp4``) run at full speed.
    Raises when ``arch`` cannot execute the path at all.
    """
    if instruction_path == "sm90" and not arch.has_wgmma:
        raise ValueError(f"{arch.name} cannot execute the sm90 (wgmma) path")
    if instruction_path == "blackwell_fp4" and not arch.has_native_fp4:
        raise ValueError(f"{arch.name} has no native FP4 tensor cores")
    if instruction_path == "sm80" and arch.is_at_least("hopper"):
        return arch.legacy_path_efficiency
    return 1.0


class ResourceRates:
    """What :func:`_resource_times` divides by, for one occupancy on one device.

    The achieved DRAM bandwidth (the occupancy ramp of
    :func:`~repro.gpu.memory.achieved_dram_bw`), the L2 and shared-memory
    bandwidths over the active SMs and the compute pipes' throughputs at
    the active fraction depend on nothing but the device and the
    occupancy.  :func:`simulate_kernel` derives them per launch unless the
    launch carries them: :class:`~repro.core.packing_kernel.PackingShape`
    keeps one per split count beside the occupancy, so a pricing miss
    divides by numbers it already has.  Every rate is the product the
    per-call formula took, in the same order, so no time moves.
    """

    __slots__ = ("dram", "l2", "smem", "fma", "alu", "cvt", "sfu", "_arch", "_frac", "_tc")

    def __init__(self, arch: ArchSpec, occ: Occupancy):
        active_frac = occ.active_sm_fraction
        self.dram = achieved_dram_bw(arch, occ.inflight_warps)
        self.l2 = l2_bw(arch, active_frac)
        self.smem = smem_bw(arch, active_frac)
        frac = max(active_frac, 1.0 / arch.sm_count)
        self.fma = arch.cuda_flops_per_s * frac
        self.alu = arch.alu_ops_per_s() * frac
        self.cvt = arch.cvt_ops_per_s() * frac
        self.sfu = arch.sfu_ops_per_s() * frac
        self._arch, self._frac, self._tc = arch, frac, {}

    def tensor_core(self, precision: str) -> float:
        """Tensor-Core FLOP/s at ``precision`` (raises where the device has
        no such hardware, on first use)."""
        peak = self._tc.get(precision)
        if peak is None:
            peak = self._tc[precision] = self._arch.tc_flops_per_s(precision) * self._frac
        return peak


def _positive(count) -> bool:
    """Whether a non-negative ``count`` (a float, or an array with one
    element per launch) is nonzero anywhere; a float costs no numpy call."""
    return count.any() if isinstance(count, np.ndarray) else count > 0


def _resource_times(trace: OpTrace, rates: ResourceRates) -> Dict[str, Any]:
    """Busy time per hardware resource for one trace at one launch's rates.

    Counts are floats, or arrays with one element per launch (combine
    those with ``maximum=np.maximum``).  Counts are never negative and
    every rate but DRAM's is positive (:class:`~repro.gpu.arch.ArchSpec`
    requires the on-chip and compute rates positive, and they count at
    least one SM), so a zero count divides to 0.0 with no guard, and each
    array element equals its launch's scalar call bit for bit.  Only the DRAM rate can be zero (no in-flight warps), and only a
    precision with work looks up its Tensor-Core peak, which raises where
    the device has none.
    """
    gmem = trace.total_gmem_bytes_effective
    if rates.dram > 0:
        dram = gmem / rates.dram
    elif _positive(gmem):
        raise ValueError("cannot move bytes with zero in-flight warps")
    else:
        dram = 0.0
    tc_time = 0.0
    for precision, flops in trace.tc_flops.items():
        if _positive(flops):
            tc_time += flops / rates.tensor_core(precision)
    return {
        "dram": dram,
        "l2": trace.l2_bytes / rates.l2,
        "smem": trace.smem_bytes_effective / rates.smem,
        "tensor_core": tc_time,
        "fma": trace.fma_flops / rates.fma,
        "alu": (trace.alu_ops + trace.shfl_ops) / rates.alu,
        "cvt": trace.cvt_ops / rates.cvt,
        "sfu": trace.sfu_ops / rates.sfu,
    }


def _combine(times: Dict[str, Any], hide_factor: float, maximum: Callable = max) -> Any:
    """Overlap-combined execution time of the busy times in ``times``:
    floats, or arrays with one element per launch (then pass
    ``maximum=np.maximum``).

    The sum runs strictly left to right in the resources' order, and the
    peak is a chain of pairwise ``maximum``: the builtin ``sum`` compensates
    its rounding from Python 3.12 on and ``np.add.reduce`` may pair terms,
    either of which would let a scalar and an array pricing, or two Python
    versions, disagree in the last bit.  All-zero times combine to 0.0.
    """
    busy = times.values()
    total = functools.reduce(operator.add, busy)
    peak = functools.reduce(maximum, busy)
    return peak + (total - peak) * (1.0 - hide_factor)


def _launch_seconds(
    arch: ArchSpec,
    trace: OpTrace,
    occ: Occupancy,
    times: Dict[str, Any],
    hide: float,
    path_eff: float,
    launches: int,
    maximum: Callable = max,
) -> Tuple[Any, Any, Any]:
    """``(total, launch, exec + barrier)`` seconds of a launch whose
    resources are busy for ``times`` (floats or arrays, see :func:`_combine`)."""
    exec_time = _combine(times, hide, maximum) / path_eff
    # Barriers serialize within a block; blocks across the machine run them
    # in parallel, so charge per-wave.
    barrier_time = trace.barriers_per_block * BARRIER_CYCLES * arch.cycle_s * occ.waves
    launch_time = launches * arch.kernel_launch_us * 1e-6
    return launch_time + exec_time + barrier_time, launch_time, exec_time + barrier_time


def simulate_kernel(arch: ArchSpec, launch: KernelLaunch) -> KernelResult:
    """Simulate one kernel launch on ``arch`` and return timing + breakdown."""
    path_eff = _path_efficiency(arch, launch.instruction_path)
    occ, rates = launch.occupancy, launch.rates
    if occ is None:
        occ = occupancy(
            arch,
            launch.grid_blocks,
            launch.warps_per_block,
            launch.smem_per_block_bytes,
            launch.regs_per_thread,
        )
    if rates is None:
        rates = ResourceRates(arch, occ)
    hide, trace = launch.hide_factor, launch.trace
    times = _resource_times(trace, rates)
    total, launch_time, busy_time = _launch_seconds(
        arch, trace, occ, times, hide, path_eff, launch.launches
    )

    # Bound now, evaluated on read: a caller editing the launch afterwards
    # cannot change this result.
    subtraces = dict(launch.subtraces)

    def subtrace_times() -> Dict[str, float]:
        return {
            tag: _combine(_resource_times(sub, rates), hide) / path_eff
            for tag, sub in subtraces.items()
        }

    # Positional (name, time, launch, exec, resources, occupancy, arch,
    # subtraces): a pricing miss builds one, and keyword matching would
    # cost as much as the rest of the construction.
    return KernelResult(
        launch.name, total, launch_time, busy_time, times, occ, arch.name,
        subtrace_times,
    )


def remember(memo: Dict[Hashable, float], key: Hashable, value: float) -> float:
    """Store ``value`` under ``key`` and return it; a memo that has reached
    :data:`LATENCY_MEMO_CAP` entries is cleared first."""
    if len(memo) >= LATENCY_MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def remember_many(
    memo: Dict[Hashable, float], keys: Iterable[Hashable], values: List[float]
) -> None:
    """Store ``values`` under ``keys``; a memo that would pass
    :data:`LATENCY_MEMO_CAP` entries is cleared first."""
    if len(memo) + len(values) > LATENCY_MEMO_CAP:
        memo.clear()
    memo.update(zip(keys, values))


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
    which answers a repeated ``(batch, seq_len)`` with one int-pair lookup
    and, on a miss, is filled for the length's whole tile class in one
    array pass without coming here: the same :func:`_resource_times` and
    :func:`_launch_seconds` over count arrays.  A miss here simulates only
    the launch that reads ``seq_len``: the residual launch, which does
    not, is memoized apart.
    """

    @functools.wraps(method)
    def lookup(self, geom, **kwargs) -> float:
        try:
            memo = self._latency_memo
        except AttributeError:
            memo = self._latency_memo = {}
        key = (geom, *sorted(kwargs.items())) if kwargs else (geom,)
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
