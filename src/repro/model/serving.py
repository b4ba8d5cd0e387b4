"""Static serving model: memory capacity, batch limits, max throughput.

The paper's serving results (Figs. 12b, 13, Table I) hinge on one chain of
effects: lower-bit caches fit more sequences in device memory, bigger
batches amortize the weight GEMMs, and the attention kernel must not throw
the advantage away.  The byte-accounting half of that chain lives in
:mod:`repro.model.memory` (shared with the dynamic continuous-batching
engine in :mod:`repro.serving`); this module owns the static questions on
top of it: does a serving point fit, what is the largest batch that fits,
and what throughput does that batch deliver.
"""

from __future__ import annotations

from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig
from repro.model.inference import AttentionSystem, decode_throughput_tokens_per_s
from repro.model.memory import CacheFormat, memory_budget_bytes, memory_required_bytes

__all__ = [
    "ServingOOMError",
    "fits",
    "max_batch_size",
    "max_throughput_tokens_per_s",
]


class ServingOOMError(RuntimeError):
    """A requested serving point does not fit in device memory."""


def fits(
    model: ModelConfig, arch: ArchSpec, fmt: CacheFormat,
    batch: int, seq_len: int, n_gpus: int = 1,
) -> bool:
    budget = memory_budget_bytes(arch)
    return memory_required_bytes(model, fmt, batch, seq_len, n_gpus) <= budget


def max_batch_size(
    model: ModelConfig, arch: ArchSpec, fmt: CacheFormat,
    seq_len: int, n_gpus: int = 1, cap: int = 1024,
) -> int:
    """Largest batch that fits; 0 when even batch=1 OOMs."""
    if not fits(model, arch, fmt, 1, seq_len, n_gpus):
        return 0
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(model, arch, fmt, mid, seq_len, n_gpus):
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_throughput_tokens_per_s(
    model: ModelConfig,
    arch: ArchSpec,
    fmt: CacheFormat,
    attention: AttentionSystem,
    seq_len: int,
    n_gpus: int = 1,
    batch_cap: int = 1024,
) -> float:
    """Throughput at the largest feasible batch (the paper's protocol:
    "maximum throughput ... under the largest batch sizes available within
    GPU memory")."""
    batch = max_batch_size(model, arch, fmt, seq_len, n_gpus, cap=batch_cap)
    if batch == 0:
        raise ServingOOMError(
            f"{model.name} with {fmt.name} cache does not fit one sequence "
            f"of {seq_len} tokens on {arch.name} x{n_gpus}"
        )
    return decode_throughput_tokens_per_s(model, arch, attention, batch, seq_len, n_gpus)
