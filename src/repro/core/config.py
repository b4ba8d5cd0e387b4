"""Configuration objects shared by kernels, baselines and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.packing import packing_ratio

#: Elements one warp tile covers along N under ``mma.m16n8k16`` (P_n, Eq. 1).
MMA_PN = 8

#: Kernel instruction-path versions (paper Sec. V-D / Fig. 9).
KERNEL_VERSIONS = ("v2", "v3", "fp4")


@dataclass(frozen=True)
class AttentionGeometry:
    """Shape of one decode-attention problem.

    ``seq_len`` is the KV-cache length; decode means ``q_len`` new queries
    per sequence (normally 1).  ``hq``/``hkv`` give MHA (equal), GQA
    (``hq > hkv``) or MQA (``hkv == 1``).
    """

    batch: int
    hq: int
    hkv: int
    seq_len: int
    head_dim: int
    q_len: int = 1

    def __post_init__(self) -> None:
        if min(self.batch, self.hq, self.hkv, self.seq_len, self.head_dim, self.q_len) <= 0:
            raise ValueError("all geometry dimensions must be positive")
        if self.hq % self.hkv != 0:
            raise ValueError(f"hq ({self.hq}) must be a multiple of hkv ({self.hkv})")

    @property
    def gq(self) -> int:
        """Query heads per KV head (1 = MHA, >1 = GQA, = hq = MQA)."""
        return self.hq // self.hkv

    @property
    def kv_elements(self) -> int:
        """Total K+V elements across the batch."""
        return 2 * self.batch * self.hkv * self.seq_len * self.head_dim

    @property
    def kv_bytes_fp16(self) -> int:
        return self.kv_elements * 2



@dataclass(frozen=True)
class BitDecodingConfig:
    """Full configuration of the BitDecoding kernels.

    The ablation flags correspond to the paper's breakdown (Fig. 16) and
    Table III:

    - ``use_layout_induction`` — off reverts to the continuous-packing
      baseline's explicit layout-transform round trips.
    - ``use_warp_parallel`` — off forces the original ``Wn = 1`` layout.
    - ``use_pipeline`` — off serializes load / dequant / MMA phases.
    - ``use_coop_softmax`` — off skips the cross-warp max reduction
      (Algorithm 1); with ``Wn > 1`` this produces *incorrect results*.
    """

    bits: int = 4
    granularity: str = "channel"
    key_group_size: int = 64
    value_group_size: int = 128
    word_bits: int = 16
    tile_n: int = 128
    wn: int = 4
    wm: int = 1
    version: str = "v2"
    dequant_method: str = "lop3"
    fp4_format: str = "mxfp4"
    use_layout_induction: bool = True
    use_warp_parallel: bool = True
    use_pipeline: bool = True
    use_coop_softmax: bool = True

    def __post_init__(self) -> None:
        if self.version not in KERNEL_VERSIONS:
            raise ValueError(f"version must be one of {KERNEL_VERSIONS}, got {self.version!r}")
        if self.version != "fp4" and self.bits not in (1, 2, 4, 8):
            raise ValueError(f"unsupported bit width {self.bits}")
        if self.dequant_method not in ("lop3", "cvt"):
            raise ValueError("dequant_method must be 'lop3' or 'cvt'")
        if self.tile_n <= 0 or self.wn <= 0 or self.wm <= 0:
            raise ValueError("tile_n / wn / wm must be positive")

    @property
    def effective_wn(self) -> int:
        """Warps along N after the warp-parallelism ablation flag."""
        return self.wn if self.use_warp_parallel else 1

    @property
    def packing_ratio(self) -> int:
        return packing_ratio(self.bits, self.word_bits)

    @property
    def residual_block_size(self) -> int:
        """Eq. 1: ``N_r = P_n x W_n x R`` (Tensor-Core aligned)."""
        return MMA_PN * self.effective_wn * self.packing_ratio

    @property
    def instruction_path(self) -> str:
        """GPU-model instruction path for this kernel version."""
        if self.version == "v3":
            return "sm90"
        if self.version == "fp4":
            return "blackwell_fp4"
        return "sm80"

    @property
    def short_name(self) -> str:
        """Paper-style series label, e.g. ``BitDecoding-KC-4 (v2)``."""
        if self.version == "fp4":
            return f"BitDecoding-{self.fp4_format}"
        prefix = "KC" if self.granularity == "channel" else "KT"
        return f"BitDecoding-{prefix}-{self.bits} ({self.version})"

    def with_overrides(self, **kwargs) -> "BitDecodingConfig":
        """Return a modified copy (convenience for ablation sweeps)."""
        return replace(self, **kwargs)

    @property
    def storage_bits_per_value(self) -> float:
        """Cache bits per element, metadata excluded."""
        if self.version == "fp4":
            return 4.0
        return float(self.bits)
