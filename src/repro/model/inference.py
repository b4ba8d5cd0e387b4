"""End-to-end decode latency model (Sec. VI-B).

One decode step of a transformer =

- **weight GEMMs** — memory-bound at small batch (stream every parameter),
  compute-bound at large batch (Tensor-Core roofline);
- **attention** — per-layer kernel time from whichever attention system is
  plugged in (BitDecoding, FlashDecoding, KIVI, QServe, ...), which is what
  the whole paper is about;
- **fixed overheads** — per-layer launch/dispatch not already counted in
  the attention kernel, and tensor-parallel all-reduces for multi-GPU.

The serving engine additionally prices *mixed* steps
(:func:`mixed_step_ms`): a Sarathi/vLLM-style scheduler quantum that
carries prefill-chunk tokens and decode tokens through the same forward
pass, so chunked prefill costs what its token composition says rather
than one-or-the-other.

The attention-system protocol is duck-typed: anything with
``decode_time_ms(geom)`` works (every kernel class in this repo does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, Tuple

from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig

#: Non-attention kernels per layer (norms, GEMM launches) after CUDA-graph
#: style batching.
_AUX_LAUNCHES_PER_LAYER = 1.5


class AttentionSystem(Protocol):
    """Anything that can report a decode-attention latency."""

    def decode_time_ms(self, geom: AttentionGeometry) -> float: ...


@dataclass
class DecodeStepBreakdown:
    """Latency components of one end-to-end decode step (milliseconds)."""

    weights_ms: float
    attention_ms: float
    overhead_ms: float
    comm_ms: float

    @property
    def total_ms(self) -> float:
        return self.weights_ms + self.attention_ms + self.overhead_ms + self.comm_ms


def weight_gemm_ms(model: ModelConfig, arch: ArchSpec, batch: int, n_gpus: int = 1) -> float:
    """Per-step weight-GEMM time: max(memory roofline, compute roofline)."""
    if batch <= 0 or n_gpus <= 0:
        raise ValueError("batch and n_gpus must be positive")
    weights = model.weights_bytes() / n_gpus
    t_mem = weights / arch.dram_bw_bytes_per_s
    flops = 2.0 * model.param_count * batch / n_gpus
    t_compute = flops / arch.tc_flops_per_s("fp16")
    return max(t_mem, t_compute) * 1e3


def _fixed_overhead_ms(model: ModelConfig, arch: ArchSpec) -> float:
    """Per-step launch/dispatch overhead not counted in the kernels."""
    return model.n_layers * _AUX_LAUNCHES_PER_LAYER * arch.kernel_launch_us * 1e-3


def _allreduce_ms(model: ModelConfig, arch: ArchSpec, tokens: int, n_gpus: int) -> float:
    """Tensor-parallel all-reduce tax for one step over ``tokens`` tokens.

    Bandwidth and fixed latency come from the :class:`ArchSpec`
    interconnect fields, so TP pricing is per-architecture.
    """
    if n_gpus <= 1:
        return 0.0
    bytes_per_layer = 2.0 * tokens * model.hidden * 2.0  # two all-reduces
    return model.n_layers * (
        bytes_per_layer / (arch.nvlink_bw_gbs * 1e9) * 1e3 + arch.allreduce_latency_us * 1e-3
    )


def prefill_attention_flops(model: ModelConfig, context_len: int, chunk_tokens: int) -> float:
    """Causal-attention Tensor-Core FLOPs of one prefill chunk.

    A chunk of ``chunk_tokens`` new tokens attends to ``context_len``
    already-cached tokens plus its own causal prefix (QK^T + PV are two
    GEMMs at 2 FLOPs per MAC, causality halves the in-chunk square).  The
    count telescopes exactly: summed over any chunking of a prompt it
    equals the whole-prompt ``2 * d * L^2`` total, so chunking pays no
    phantom attention FLOPs — only the per-step overheads it really adds.
    """
    if context_len < 0 or chunk_tokens < 0:
        raise ValueError("context_len and chunk_tokens must be non-negative")
    macs = chunk_tokens * context_len + chunk_tokens**2 / 2.0
    return model.n_layers * model.hq * 4.0 * model.head_dim * macs


def _grouped_attention_ms(
    model: ModelConfig,
    attention: AttentionSystem,
    batch: int,
    seq_len: int,
    decode_groups: Optional[Sequence[Tuple[int, int]]],
    tp: int = 1,
) -> float:
    """Per-step decode-attention time, one kernel launch per shape group.

    ``decode_groups`` is ``(group_batch, group_seq_len)`` per equal-shape
    group the backend launches together (``None`` means one launch covers
    the whole batch at ``seq_len`` — the legacy uniform pricing).  Groups
    must partition the batch; each is priced at its *own* context length,
    so a ragged batch no longer pays everyone-at-max, and a batch the
    backend cannot group (the looped path) prices as ``batch`` batch-1
    launches by passing one group per sequence.

    ``tp`` shards the head space: each rank runs the same kernel over
    ``hq/tp`` query heads and ``hkv/tp`` KV heads, and ranks run
    concurrently, so the step pays one rank's (smaller) attention time.
    """
    if decode_groups is None:
        geom = model.attention_geometry(batch, seq_len, tp=tp)
        return model.n_layers * attention.decode_time_ms(geom)
    if sum(b for b, _ in decode_groups) != batch:
        raise ValueError("decode_groups batches must sum to the step's decode batch")
    attn_ms = 0.0
    for group_batch, group_seq_len in decode_groups:
        geom = model.attention_geometry(group_batch, group_seq_len, tp=tp)
        attn_ms += model.n_layers * attention.decode_time_ms(geom)
    return attn_ms


def decode_step_breakdown(
    model: ModelConfig,
    arch: ArchSpec,
    attention: AttentionSystem,
    batch: int,
    seq_len: int,
    n_gpus: int = 1,
    decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
    tp: int = 1,
) -> DecodeStepBreakdown:
    """Full latency breakdown of one decode step.

    ``decode_groups`` prices the attention term per shape-group kernel
    launch (see :func:`_grouped_attention_ms`); the weight GEMMs, fixed
    overheads and all-reduce still see the whole batch once — grouping
    changes how attention is launched, not how many tokens flow.  ``tp``
    head-shards the attention kernel across ranks (the weight GEMMs and
    all-reduce already scale through ``n_gpus``).
    """
    attn_ms = _grouped_attention_ms(model, attention, batch, seq_len, decode_groups, tp=tp)
    weights_ms = weight_gemm_ms(model, arch, batch, n_gpus)
    overhead_ms = _fixed_overhead_ms(model, arch)
    comm_ms = _allreduce_ms(model, arch, batch, n_gpus)
    return DecodeStepBreakdown(
        weights_ms=weights_ms,
        attention_ms=attn_ms,
        overhead_ms=overhead_ms,
        comm_ms=comm_ms,
    )


def decode_step_ms(
    model: ModelConfig,
    arch: ArchSpec,
    attention: AttentionSystem,
    batch: int,
    seq_len: int,
    n_gpus: int = 1,
    decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
    tp: int = 1,
) -> float:
    return decode_step_breakdown(
        model, arch, attention, batch, seq_len, n_gpus, decode_groups, tp
    ).total_ms


def decode_throughput_tokens_per_s(
    model: ModelConfig,
    arch: ArchSpec,
    attention: AttentionSystem,
    batch: int,
    seq_len: int,
    n_gpus: int = 1,
) -> float:
    """Decoded tokens per second across the whole batch."""
    step_ms = decode_step_ms(model, arch, attention, batch, seq_len, n_gpus)
    return batch / (step_ms * 1e-3)


def prefill_time_ms(
    model: ModelConfig,
    arch: ArchSpec,
    prompt_len: int,
    n_gpus: int = 1,
) -> float:
    """Coarse prefill-latency model for the serving engine.

    Prefill is token-parallel, so the weight GEMMs see an effective batch
    of ``prompt_len`` tokens (compute-bound past a few hundred tokens) and
    causal attention adds ``2 * d * L^2`` Tensor-Core FLOPs per head per
    layer (QK^T + PV, halved by causality, 2 FLOPs per MAC).
    """
    if prompt_len <= 0:
        raise ValueError("prompt_len must be positive")
    gemm_ms = weight_gemm_ms(model, arch, batch=prompt_len, n_gpus=n_gpus)
    attn_flops = prefill_attention_flops(model, 0, prompt_len)
    attn_ms = attn_flops / (arch.tc_flops_per_s("fp16") * n_gpus) * 1e3
    return gemm_ms + attn_ms


@dataclass
class MixedStepBreakdown:
    """Latency components of one mixed prefill+decode step (milliseconds)."""

    weights_ms: float
    attention_ms: float
    overhead_ms: float
    comm_ms: float
    prefill_tokens: int
    decode_tokens: int

    @property
    def total_ms(self) -> float:
        return self.weights_ms + self.attention_ms + self.overhead_ms + self.comm_ms


def mixed_step_breakdown(
    model: ModelConfig,
    arch: ArchSpec,
    attention: AttentionSystem,
    decode_batch: int,
    decode_seq_len: int,
    prefill_chunks: Sequence[Tuple[int, int]],
    n_gpus: int = 1,
    decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
    tp: int = 1,
) -> MixedStepBreakdown:
    """Price one scheduler step by its token composition.

    ``prefill_chunks`` is one ``(context_len, chunk_tokens)`` pair per
    in-flight prefill advanced this step; ``decode_batch`` sequences emit
    one token each against a cache of up to ``decode_seq_len`` tokens.
    The weight GEMMs see the *combined* token count (the whole point of
    mixing: prefill chunks ride the weight stream the decode batch already
    pays for), attention is the sum of the decode kernel and the chunks'
    causal Tensor-Core FLOPs, and the fixed overheads are charged once per
    step rather than once per phase.

    A step with no prefill chunks prices identically to
    :func:`decode_step_breakdown` — whole-prompt and chunked scheduling
    share one cost model and differ only in composition.
    """
    prefill_tokens = sum(chunk for _, chunk in prefill_chunks)
    if decode_batch < 0:
        raise ValueError("decode_batch must be non-negative")
    total_tokens = decode_batch + prefill_tokens
    if total_tokens <= 0:
        raise ValueError("a mixed step must process at least one token")
    weights_ms = weight_gemm_ms(model, arch, batch=total_tokens, n_gpus=n_gpus)
    attn_ms = 0.0
    if decode_batch > 0:
        attn_ms += _grouped_attention_ms(
            model, attention, decode_batch, decode_seq_len, decode_groups, tp=tp
        )
    if prefill_chunks:
        flops = sum(prefill_attention_flops(model, ctx, chunk) for ctx, chunk in prefill_chunks)
        attn_ms += flops / (arch.tc_flops_per_s("fp16") * n_gpus) * 1e3
    return MixedStepBreakdown(
        weights_ms=weights_ms,
        attention_ms=attn_ms,
        overhead_ms=_fixed_overhead_ms(model, arch),
        comm_ms=_allreduce_ms(model, arch, total_tokens, n_gpus),
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_batch,
    )


def mixed_step_ms(
    model: ModelConfig,
    arch: ArchSpec,
    attention: AttentionSystem,
    decode_batch: int,
    decode_seq_len: int,
    prefill_chunks: Sequence[Tuple[int, int]],
    n_gpus: int = 1,
    decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
    tp: int = 1,
) -> float:
    return mixed_step_breakdown(
        model,
        arch,
        attention,
        decode_batch,
        decode_seq_len,
        prefill_chunks,
        n_gpus,
        decode_groups,
        tp,
    ).total_ms
