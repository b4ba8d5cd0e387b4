"""LLM architecture configurations used in the paper's evaluation.

Only shape parameters matter for the end-to-end latency/throughput model
(weights volume, heads, dims); the registry covers every model of
Sec. VI-B.  LLaMA-2-7B is the lone MHA model — the one where QServe still
looks good (Fig. 13); all others are GQA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.config import AttentionGeometry


@dataclass(frozen=True)
class ModelConfig:
    """Transformer shape parameters of one evaluated LLM."""

    name: str
    n_layers: int
    hq: int
    hkv: int
    head_dim: int
    hidden: int
    intermediate: int
    vocab: int

    def __post_init__(self) -> None:
        if self.hq % self.hkv != 0:
            raise ValueError("hq must be a multiple of hkv")
        if self.hq * self.head_dim != self.hidden:
            raise ValueError(
                f"{self.name}: hq * head_dim ({self.hq * self.head_dim}) "
                f"!= hidden ({self.hidden})"
            )

    @property
    def gq(self) -> int:
        return self.hq // self.hkv

    @property
    def attention_variant(self) -> str:
        return "MHA" if self.gq == 1 else ("MQA" if self.hkv == 1 else "GQA")

    @property
    def param_count(self) -> float:
        """Approximate parameter count (attention + SwiGLU MLP + embeddings)."""
        kv_dim = self.hkv * self.head_dim
        attn = self.hidden * (2 * self.hidden + 2 * kv_dim)  # Wq, Wo, Wk, Wv
        mlp = 3 * self.hidden * self.intermediate  # gate, up, down
        emb = 2 * self.vocab * self.hidden  # tied-ish in/out embeddings
        return float(self.n_layers * (attn + mlp) + emb)

    def weights_bytes(self) -> float:
        """FP16 weight bytes."""
        return self.param_count * 2.0

    def kv_bytes_per_token(self, bits_per_value: float = 16.0) -> float:
        """KV-cache bytes one token adds across all layers."""
        return 2.0 * self.n_layers * self.hkv * self.head_dim * bits_per_value / 8.0

    def attention_geometry(
        self, batch: int, seq_len: int, tp: int = 1
    ) -> AttentionGeometry:
        """Per-layer decode-attention geometry at a serving point.

        ``tp`` head-shards the geometry across tensor-parallel ranks: each
        rank runs ``hq/tp`` query heads over ``hkv/tp`` KV heads (whole GQA
        groups — ``tp`` must divide ``hkv``), so one rank's kernel is what
        a TP step pays for attention.
        """
        if tp < 1:
            raise ValueError("tp must be >= 1")
        if self.hkv % tp != 0:
            raise ValueError(
                f"{self.name}: tp={tp} does not divide hkv={self.hkv}; "
                "tensor parallelism shards whole KV-head groups"
            )
        return AttentionGeometry(
            batch=batch,
            hq=self.hq // tp,
            hkv=self.hkv // tp,
            seq_len=seq_len,
            head_dim=self.head_dim,
        )


LLAMA2_7B = ModelConfig(
    name="llama-2-7B", n_layers=32, hq=32, hkv=32, head_dim=128,
    hidden=4096, intermediate=11008, vocab=32000,
)
LLAMA31_8B = ModelConfig(
    name="llama-3.1-8B", n_layers=32, hq=32, hkv=8, head_dim=128,
    hidden=4096, intermediate=14336, vocab=128256,
)
LLAMA31_70B = ModelConfig(
    name="llama-3.1-70B", n_layers=80, hq=64, hkv=8, head_dim=128,
    hidden=8192, intermediate=28672, vocab=128256,
)
QWEN3_8B = ModelConfig(
    name="Qwen3-8B", n_layers=36, hq=32, hkv=8, head_dim=128,
    hidden=4096, intermediate=12288, vocab=151936,
)
QWEN3_14B = ModelConfig(
    name="Qwen3-14B", n_layers=40, hq=40, hkv=8, head_dim=128,
    hidden=5120, intermediate=17408, vocab=151936,
)
#: A deliberately minuscule GQA model for the serving engine's real-token
#: execution mode (``serve-sim --execute``): small enough that running
#: every resident sequence through TinyTransformer numerics per scheduler
#: step is cheap in CI, yet it exercises grouped queries, multiple layers
#: and the paged low-bit cache end to end.
TINY = ModelConfig(
    name="tiny", n_layers=2, hq=4, hkv=2, head_dim=16,
    hidden=64, intermediate=128, vocab=256,
)

MODEL_REGISTRY: Dict[str, ModelConfig] = {
    m.name.lower(): m
    for m in (LLAMA2_7B, LLAMA31_8B, LLAMA31_70B, QWEN3_8B, QWEN3_14B, TINY)
}


def get_model(name: str) -> ModelConfig:
    key = name.lower()
    if key not in MODEL_REGISTRY:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known models: {known}")
    return MODEL_REGISTRY[key]
