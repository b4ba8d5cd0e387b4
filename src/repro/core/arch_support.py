"""Architecture-specific kernel paths (Sec. V-D).

- **Pre-Hopper (Ampere/Ada)** — the ``v2`` path: per-warp ``mma.m16n8k16``
  with ``ldmatrix`` + ``cp.async`` double buffering.
- **Hopper** — the ``v3`` path: ``wgmma`` warpgroup MMAs and TMA loads.
  ``wgmma`` constrains operand B to *shared memory* (``wgmma_SS``), so the
  dequantized FP16 tiles are stored back to SMEM with ``STSM``; the
  asynchronous ``wgmma`` overlaps those stores with computation.
- **Blackwell** — the ``fp4`` path: native micro-scaling MMA consumes the
  packed 4-bit data directly (no dequantization), at the price of
  re-quantizing ``P`` after every softmax tile.

:func:`resolve_version` picks the best path a device supports and
:func:`validate_version` refuses impossible combinations — the same role
as the paper's "configuration setup" (Sec. IV-A(4)).
"""

from __future__ import annotations

from repro.core.config import BitDecodingConfig
from repro.gpu.arch import ArchSpec


def resolve_version(arch: ArchSpec) -> str:
    """Best kernel version for ``arch``."""
    if arch.has_native_fp4:
        return "fp4"
    if arch.has_wgmma:
        return "v3"
    return "v2"


def validate_version(arch: ArchSpec, version: str) -> None:
    """Raise unless ``arch`` can execute kernel ``version``."""
    if version == "v3" and not arch.has_wgmma:
        raise ValueError(
            f"kernel v3 needs wgmma (Hopper); {arch.name} ({arch.generation}) lacks it"
        )
    if version == "fp4" and not arch.has_native_fp4:
        raise ValueError(
            f"kernel fp4 needs native FP4 tensor cores (Blackwell); "
            f"{arch.name} ({arch.generation}) lacks them"
        )
    if version not in ("v2", "v3", "fp4"):
        raise ValueError(f"unknown kernel version {version!r}")


def validate_config(arch: ArchSpec, config: BitDecodingConfig) -> None:
    """Cross-check a full configuration against a device."""
    validate_version(arch, config.version)
    if config.version == "fp4" and config.fp4_format not in ("mxfp4", "nvfp4"):
        raise ValueError(f"unknown fp4 format {config.fp4_format!r}")
