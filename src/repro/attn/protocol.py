"""The ``AttentionBackend`` protocol: one API over every cache implementation.

The reproduction has two ways of answering "attend this query over that
sequence's KV history":

- real numerics over a *paged* low-bit cache (packed blocks, integer or
  MXFP4/NVFP4, living in a shared page pool behind per-sequence block
  tables),
- the *analytical* cost model (no tokens, just milliseconds).

This module defines the protocol both implement, so the transformer and
the serving engine stop caring which one they are wired to:

- :class:`KVCacheHandle` — an opaque per-layer cache binding.  For the
  paged backend the handle literally *is* a set of block tables into the
  shared pool.
- :class:`AttentionBackend` — ``prefill(q, kv, block_table)`` /
  ``append_kv(kv, block_table)`` / ``decode_step(q, block_table)`` plus
  the step-pricing surface (``decode_step_ms`` and friends) the serving
  engine schedules with.  The numeric backend prices steps through its own
  kernel model; the analytical backend prices steps and refuses tokens.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np


class KVCacheHandle(abc.ABC):
    """Opaque handle to one layer's KV state inside a backend.

    Callers treat handles as tokens of identity: they are created by
    :meth:`AttentionBackend.new_handle`, threaded through ``prefill`` /
    ``append_kv`` / ``decode_step``, and released with
    :meth:`AttentionBackend.release`.  The only universally meaningful
    observable is :attr:`seq_len`.
    """

    @property
    @abc.abstractmethod
    def seq_len(self) -> int:
        """Tokens currently cached (per sequence; lock-step batches share it)."""


class AttentionBackend(abc.ABC):
    """One attention implementation: numeric token execution + step pricing.

    Numeric surface (``new_handle`` / ``prefill`` / ``append_kv`` /
    ``decode_step``): shapes follow the decode-engine convention —
    queries are ``[batch, q_len, hq, d]``, K/V are ``[batch, hkv, n, d]``.
    ``prefill`` may be called repeatedly on the same handle to continue a
    context chunk by chunk (chunked prefill).

    Timing surface (``prefill_time_ms`` / ``decode_step_ms`` /
    ``mixed_step_ms``): the serving engine's clock.  Defaults delegate to
    the end-to-end latency model over :attr:`attention_system`, so every
    backend prices steps consistently with the static serving model.
    """

    # ------------------------------------------------------------- numerics

    @abc.abstractmethod
    def new_handle(self, batch: int, hkv: int, head_dim: int) -> KVCacheHandle:
        """Create an empty cache handle for ``batch`` lock-step sequences."""

    @abc.abstractmethod
    def prefill(
        self,
        q: Optional[np.ndarray],
        kv: Tuple[np.ndarray, np.ndarray],
        block_table: KVCacheHandle,
    ) -> Optional[np.ndarray]:
        """Write a context chunk ``kv`` and attend ``q`` over it causally.

        ``q`` is ``[batch, n, hq, d]`` (post-RoPE) or None to only build
        the cache; ``kv`` is ``(k, v)`` of shape ``[batch, hkv, n, d]``.
        When the handle already holds context, the chunk continues it:
        queries attend the cached tokens unmasked and the new tokens
        causally.  Returns the attention output ``[batch, n, hq, d]`` (or
        None when ``q`` is None).
        """

    @abc.abstractmethod
    def append_kv(self, kv: Tuple[np.ndarray, np.ndarray], block_table: KVCacheHandle) -> None:
        """Append one decoded token's K/V (``[batch, hkv, d]`` each)."""

    @abc.abstractmethod
    def decode_step(self, q: np.ndarray, block_table: KVCacheHandle) -> np.ndarray:
        """One decode attention step of ``q`` ``[batch, q_len, hq, d]``."""

    def release(self, block_table: KVCacheHandle) -> None:
        """Free whatever the handle pins (pages, slots); default no-op."""

    # --------------------------------------------------------------- timing

    @property
    @abc.abstractmethod
    def attention_system(self):
        """The kernel-level cost model (anything with ``decode_time_ms``)."""

    def prefill_time_ms(self, model, arch, prompt_len: int, n_gpus: int = 1) -> float:
        """Whole-prompt prefill latency (serving-engine admission charge)."""
        from repro.model.inference import prefill_time_ms

        return prefill_time_ms(model, arch, prompt_len, n_gpus)

    def decode_step_ms(
        self,
        model,
        arch,
        batch: int,
        seq_len: int,
        n_gpus: int = 1,
        decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
        tp: int = 1,
    ) -> float:
        """One end-to-end decode step at a serving point.

        ``decode_groups`` — ``(group_batch, group_seq_len)`` per
        equal-shape kernel launch — prices grouped batched decode; omit it
        for one launch over the whole batch at ``seq_len``.  ``tp``
        head-shards the attention kernel across tensor-parallel ranks.
        """
        from repro.model.inference import decode_step_ms

        return decode_step_ms(
            model, arch, self.attention_system, batch, seq_len, n_gpus, decode_groups, tp
        )

    def mixed_step_ms(
        self,
        model,
        arch,
        decode_batch: int,
        decode_seq_len: int,
        prefill_chunks: Sequence[Tuple[int, int]],
        n_gpus: int = 1,
        decode_groups: Optional[Sequence[Tuple[int, int]]] = None,
        tp: int = 1,
    ) -> float:
        """One mixed prefill+decode scheduler quantum."""
        from repro.model.inference import mixed_step_ms

        return mixed_step_ms(
            model,
            arch,
            self.attention_system,
            decode_batch,
            decode_seq_len,
            prefill_chunks,
            n_gpus,
            decode_groups,
            tp,
        )

