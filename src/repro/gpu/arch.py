"""GPU architecture specifications.

Each :class:`ArchSpec` captures the handful of hardware quantities the
BitDecoding performance model needs.  The numbers come from vendor
datasheets and the micro-benchmarking literature the paper cites
(e.g. Luo et al., "Benchmarking and dissecting the NVIDIA Hopper GPU
architecture").  They are *model parameters*: the reproduction targets
relative shapes, not absolute testbed milliseconds.

Five devices from the paper's evaluation are registered:

========================  ==========  =========================
name                      generation  role in the paper
========================  ==========  =========================
``a100``                  ampere      high-bandwidth datacenter
``rtx4090``               ada         bandwidth-constrained
``h100``                  hopper      wgmma / TMA showcase
``rtx5090``               blackwell   native MXFP4 showcase
``rtx_pro_6000``          blackwell   native MXFP4, workstation
========================  ==========  =========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


#: Ordered list of supported generation names, oldest first.
GENERATIONS: Tuple[str, ...] = ("ampere", "ada", "hopper", "blackwell")


@dataclass(frozen=True)
class ArchSpec:
    """Static description of one GPU for the performance model.

    Throughput figures are *dense* (non-sparse) peaks.  Tensor-Core numbers
    assume FP32 accumulation, which is what attention kernels use.
    """

    name: str
    generation: str

    # --- parallel machine shape -------------------------------------------------
    sm_count: int
    clock_ghz: float
    max_warps_per_sm: int
    smem_per_sm_bytes: int
    registers_per_sm: int

    # --- memory system ----------------------------------------------------------
    dram_bw_gbs: float
    l2_size_mb: float
    l2_bw_gbs: float
    #: Bytes of shared memory traffic one SM can move per cycle (LSU width).
    smem_bytes_per_cycle: int
    #: Total inflight warps needed machine-wide to reach peak DRAM bandwidth.
    bw_saturation_warps: int

    # --- compute pipes ----------------------------------------------------------
    #: Tensor-Core half-precision (FP16/BF16 in, FP32 accumulate) TFLOPS.
    tc_fp16_tflops: float
    #: Tensor-Core FP8 TFLOPS (0 when the generation lacks FP8).
    tc_fp8_tflops: float
    #: Tensor-Core FP4 (MXFP4/NVFP4) TFLOPS (0 when unsupported).
    tc_fp4_tflops: float
    #: CUDA-core FP32 TFLOPS (FMA counts as two FLOPs).
    cuda_fp32_tflops: float
    #: CUDA-core INT32/logic ops per SM per cycle (``lop3`` class).
    alu_ops_per_sm_cycle: int
    #: Special-function-unit (exp/rcp) ops per SM per cycle.
    sfu_ops_per_sm_cycle: int
    #: Slow data-conversion (``cvt`` / ``static_cast``) ops per SM per cycle.
    cvt_ops_per_sm_cycle: int

    # --- feature flags ----------------------------------------------------------
    has_cp_async: bool = True
    has_tma: bool = False
    has_wgmma: bool = False
    has_native_fp4: bool = False

    #: Device memory capacity (for serving-time OOM / batch-size limits).
    memory_gb: float = 80.0

    # --- software overheads -----------------------------------------------------
    kernel_launch_us: float = 6.0
    #: Relative throughput when running the legacy SM80 instruction path on a
    #: newer machine (the paper reports ~35% penalty on Hopper).
    legacy_path_efficiency: float = 1.0

    # --- interconnect (tensor-parallel all-reduce) ------------------------------
    #: All-reduce bandwidth per GPU (NVLink-class for the datacenter parts;
    #: the default is the A100 SXM figure behind the 70B/8xA100 row).
    nvlink_bw_gbs: float = 300.0
    #: Fixed all-reduce latency per layer per step (microseconds).
    allreduce_latency_us: float = 10.0

    def __post_init__(self) -> None:
        if self.generation not in GENERATIONS:
            raise ValueError(
                f"unknown generation {self.generation!r}; expected one of {GENERATIONS}"
            )
        if self.sm_count <= 0 or self.clock_ghz <= 0:
            raise ValueError("sm_count and clock_ghz must be positive")
        on_chip = (self.l2_bw_gbs, self.smem_bytes_per_cycle, self.cuda_fp32_tflops)
        pipes = (self.alu_ops_per_sm_cycle, self.sfu_ops_per_sm_cycle, self.cvt_ops_per_sm_cycle)
        if min(on_chip + pipes) <= 0:
            # The kernel model divides by these rates without a zero guard.
            raise ValueError("on-chip bandwidths and compute-pipe rates must be positive")
        if self.has_native_fp4 and self.tc_fp4_tflops <= 0:
            raise ValueError("native FP4 support requires tc_fp4_tflops > 0")
        if self.nvlink_bw_gbs <= 0 or self.allreduce_latency_us < 0:
            raise ValueError(
                "nvlink_bw_gbs must be positive and allreduce_latency_us non-negative"
            )

    # --- derived quantities -------------------------------------------------

    @property
    def cycle_s(self) -> float:
        """Seconds per clock cycle."""
        return 1.0 / (self.clock_ghz * 1e9)

    @property
    def dram_bw_bytes_per_s(self) -> float:
        return self.dram_bw_gbs * 1e9

    @property
    def l2_bw_bytes_per_s(self) -> float:
        return self.l2_bw_gbs * 1e9

    def tc_flops_per_s(self, precision: str = "fp16") -> float:
        """Tensor-Core FLOP/s for a compute precision.

        ``precision`` is one of ``fp16``, ``fp8``, ``fp4``.  Requesting an
        unsupported precision raises ``ValueError`` so kernels cannot silently
        pretend a machine has hardware it lacks.
        """
        table = {
            "fp16": self.tc_fp16_tflops,
            "bf16": self.tc_fp16_tflops,
            "fp8": self.tc_fp8_tflops,
            "fp4": self.tc_fp4_tflops,
        }
        if precision not in table:
            raise ValueError(f"unknown tensor-core precision {precision!r}")
        tflops = table[precision]
        if tflops <= 0:
            raise ValueError(f"{self.name} has no tensor-core support for {precision}")
        return tflops * 1e12

    @property
    def cuda_flops_per_s(self) -> float:
        return self.cuda_fp32_tflops * 1e12

    def alu_ops_per_s(self) -> float:
        return self.alu_ops_per_sm_cycle * self.sm_count * self.clock_ghz * 1e9

    def sfu_ops_per_s(self) -> float:
        return self.sfu_ops_per_sm_cycle * self.sm_count * self.clock_ghz * 1e9

    def cvt_ops_per_s(self) -> float:
        return self.cvt_ops_per_sm_cycle * self.sm_count * self.clock_ghz * 1e9

    @property
    def smem_bw_bytes_per_s(self) -> float:
        return self.smem_bytes_per_cycle * self.sm_count * self.clock_ghz * 1e9

    def is_at_least(self, generation: str) -> bool:
        """True when this device's generation is >= ``generation``."""
        if generation not in GENERATIONS:
            raise ValueError(f"unknown generation {generation!r}")
        return GENERATIONS.index(self.generation) >= GENERATIONS.index(generation)


# ---------------------------------------------------------------------------
# Device registry.  Peak numbers: vendor datasheets (dense, FP32 accumulate).
# ---------------------------------------------------------------------------

A100 = ArchSpec(
    name="a100",
    generation="ampere",
    sm_count=108,
    clock_ghz=1.41,
    max_warps_per_sm=64,
    smem_per_sm_bytes=164 * 1024,
    registers_per_sm=65536,
    dram_bw_gbs=2039.0,  # A100-SXM4-80GB
    l2_size_mb=40.0,
    l2_bw_gbs=5120.0,
    smem_bytes_per_cycle=128,
    bw_saturation_warps=108 * 8,
    tc_fp16_tflops=312.0,
    tc_fp8_tflops=0.0,
    tc_fp4_tflops=0.0,
    cuda_fp32_tflops=19.5,
    alu_ops_per_sm_cycle=64,
    sfu_ops_per_sm_cycle=16,
    cvt_ops_per_sm_cycle=16,
    has_cp_async=True,
    memory_gb=80.0,
    kernel_launch_us=6.0,
)

RTX4090 = ArchSpec(
    name="rtx4090",
    generation="ada",
    sm_count=128,
    clock_ghz=2.52,
    max_warps_per_sm=48,
    smem_per_sm_bytes=100 * 1024,
    registers_per_sm=65536,
    dram_bw_gbs=1008.0,
    l2_size_mb=72.0,
    l2_bw_gbs=5000.0,
    smem_bytes_per_cycle=128,
    bw_saturation_warps=128 * 6,
    tc_fp16_tflops=165.2,  # FP16 with FP32 accumulate
    tc_fp8_tflops=330.4,
    tc_fp4_tflops=0.0,
    cuda_fp32_tflops=82.6,
    alu_ops_per_sm_cycle=64,
    sfu_ops_per_sm_cycle=16,
    cvt_ops_per_sm_cycle=16,
    has_cp_async=True,
    memory_gb=24.0,
    kernel_launch_us=5.0,
)

H100 = ArchSpec(
    name="h100",
    generation="hopper",
    sm_count=132,
    clock_ghz=1.83,
    max_warps_per_sm=64,
    smem_per_sm_bytes=228 * 1024,
    registers_per_sm=65536,
    dram_bw_gbs=3350.0,  # H100-SXM5
    l2_size_mb=50.0,
    l2_bw_gbs=12000.0,
    smem_bytes_per_cycle=128,
    bw_saturation_warps=132 * 10,
    tc_fp16_tflops=989.0,
    tc_fp8_tflops=1979.0,
    tc_fp4_tflops=0.0,
    cuda_fp32_tflops=66.9,
    alu_ops_per_sm_cycle=64,
    sfu_ops_per_sm_cycle=16,
    cvt_ops_per_sm_cycle=16,
    has_cp_async=True,
    has_tma=True,
    has_wgmma=True,
    memory_gb=80.0,
    kernel_launch_us=5.0,
    legacy_path_efficiency=0.65,  # paper: 35% penalty for SM80 path on Hopper
)

RTX5090 = ArchSpec(
    name="rtx5090",
    generation="blackwell",
    sm_count=170,
    clock_ghz=2.41,
    max_warps_per_sm=48,
    smem_per_sm_bytes=100 * 1024,
    registers_per_sm=65536,
    dram_bw_gbs=1792.0,
    l2_size_mb=96.0,
    l2_bw_gbs=8000.0,
    smem_bytes_per_cycle=128,
    bw_saturation_warps=170 * 6,
    tc_fp16_tflops=419.0,
    tc_fp8_tflops=838.0,
    tc_fp4_tflops=1676.0,
    cuda_fp32_tflops=104.8,
    alu_ops_per_sm_cycle=64,
    sfu_ops_per_sm_cycle=16,
    cvt_ops_per_sm_cycle=16,
    has_cp_async=True,
    has_tma=True,
    has_wgmma=False,  # consumer Blackwell keeps per-warp MMA but adds FP4 units
    has_native_fp4=True,
    memory_gb=32.0,
    kernel_launch_us=5.0,
    legacy_path_efficiency=0.75,
)

RTX_PRO_6000 = ArchSpec(
    name="rtx_pro_6000",
    generation="blackwell",
    sm_count=188,
    clock_ghz=2.29,
    max_warps_per_sm=48,
    smem_per_sm_bytes=100 * 1024,
    registers_per_sm=65536,
    dram_bw_gbs=1792.0,
    l2_size_mb=128.0,
    l2_bw_gbs=8200.0,
    smem_bytes_per_cycle=128,
    bw_saturation_warps=188 * 6,
    tc_fp16_tflops=503.0,
    tc_fp8_tflops=1007.0,
    tc_fp4_tflops=2014.0,
    cuda_fp32_tflops=125.0,
    alu_ops_per_sm_cycle=64,
    sfu_ops_per_sm_cycle=16,
    cvt_ops_per_sm_cycle=16,
    has_cp_async=True,
    has_tma=True,
    has_wgmma=False,
    has_native_fp4=True,
    memory_gb=96.0,
    kernel_launch_us=5.0,
    legacy_path_efficiency=0.75,
)

GPU_REGISTRY: Dict[str, ArchSpec] = {
    spec.name: spec for spec in (A100, RTX4090, H100, RTX5090, RTX_PRO_6000)
}


def get_arch(name: str) -> ArchSpec:
    """Look up a registered device by name (case-insensitive)."""
    key = name.lower()
    if key not in GPU_REGISTRY:
        known = ", ".join(sorted(GPU_REGISTRY))
        raise KeyError(f"unknown GPU {name!r}; known devices: {known}")
    return GPU_REGISTRY[key]
