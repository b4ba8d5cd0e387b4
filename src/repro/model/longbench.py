"""LongBench-proxy accuracy suite (Table I's accuracy column).

The paper reports LongBench scores for FP16/INT4/INT2 caches on
LLaMA-3.1-8B.  Without the checkpoint or the benchmark data, we measure the
same *mechanism* — quantization noise in K/V perturbing long-context
retrieval — with synthetic tasks whose answers depend entirely on attention
reading the right cache entries:

- **associative recall**: the context stores (key, value) vector pairs;
  the query asks for the value bound to one key among many distractors.
- **needle retrieval**: one relevant row hidden in a long noise context.

Every task runs through the *real* engine: prefill packs/quantizes the real
cache, decode runs the real Packing/Residual kernels.  Scores are the
fraction of trials where the attended output decodes (nearest-neighbor) to
the correct value.  FP16 runs the same tasks through exact attention, so
the FP16 -> INT4 -> INT2 degradation ordering and rough magnitudes are
directly comparable to Table I's deltas (-0.2% / -2.7%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.attention import BitDecoding
from repro.core.softmax import reference_attention


@dataclass(frozen=True)
class TaskConfig:
    """One synthetic retrieval task.

    ``n_pairs`` must be at least the largest residual block size in play
    (256 for INT2) so the cache actually quantizes — shorter contexts sit
    entirely in the FP16 residual and measure nothing.

    ``key_similarity`` mixes a shared direction into every key, shrinking
    the retrieval margin so that cache-quantization noise, not task noise,
    decides the borderline trials.
    """

    name: str
    n_pairs: int
    head_dim: int = 64
    noise: float = 0.15
    key_similarity: float = 0.5
    #: Sharpness of the retrieval logits (folds in the kernels' 1/sqrt(d)).
    logit_scale: float = 12.0
    trials: int = 150


DEFAULT_SUITE = (
    TaskConfig(name="recall-256", n_pairs=256),
    TaskConfig(name="recall-512", n_pairs=512, trials=100),
    TaskConfig(name="needle-hard", n_pairs=256, noise=0.20, trials=100),
)


def _similar_unit_rows(rng, n: int, d: int, similarity: float) -> np.ndarray:
    shared = rng.standard_normal(d).astype(np.float32)
    rows = similarity * shared[None, :] + rng.standard_normal((n, d)).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def run_task(
    task: TaskConfig,
    engine: Optional[BitDecoding],
    seed: int = 0,
) -> float:
    """Accuracy of one task under one cache configuration.

    ``engine=None`` is the FP16 reference (exact attention); otherwise K/V
    go through the engine's quantized cache and the decode kernels.
    """
    rng = np.random.default_rng(seed)
    d = task.head_dim
    correct = 0
    for trial in range(task.trials):
        keys = _similar_unit_rows(rng, task.n_pairs, d, task.key_similarity)
        values = _similar_unit_rows(rng, task.n_pairs, d, 0.0)
        # The cached K rows are noisy renditions of the keys (as projections
        # of real hidden states would be).
        k_rows = keys + task.noise * rng.standard_normal((task.n_pairs, d)).astype(np.float32)
        target = int(rng.integers(task.n_pairs))
        q = keys[target] * task.logit_scale * math.sqrt(d)

        if engine is None:
            out = reference_attention(q[None, :], k_rows, values)[0]
        else:
            k4 = k_rows[None, None].astype(np.float16)  # [1, 1, L, d]
            v4 = values[None, None].astype(np.float16)
            cache = engine.prefill(k4, v4)
            q4 = q[None, None, None, :].astype(np.float16)  # [1, 1, 1, d]
            out = engine.decode(q4, cache)[0, 0, 0]

        pred = int(np.argmax(values @ out))
        correct += pred == target
    return correct / task.trials


def run_suite(
    engine: Optional[BitDecoding],
    suite=DEFAULT_SUITE,
    seed: int = 0,
) -> Dict[str, float]:
    """Run every task; returns per-task accuracy plus the ``average``."""
    scores = {task.name: run_task(task, engine, seed=seed + i) for i, task in enumerate(suite)}
    scores["average"] = sum(scores.values()) / len(suite)
    return scores
