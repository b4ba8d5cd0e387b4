"""A small runnable numpy transformer decoder.

A functional substrate for end-to-end *numerics*: RMSNorm, RoPE, attention
through any :class:`~repro.attn.protocol.AttentionBackend` (paged or
contiguous low-bit caches, or the exact FP16 reference when no backend is
set), and a SwiGLU MLP.  Used by the integration tests, the
LongBench-proxy accuracy suite and the serving engine's real-execution
mode (:class:`~repro.attn.runner.ModelRunner`) to push real activations
through the real quantized-cache code paths — not to reproduce
trained-model quality, which per the README's reproduction contract is out
of scope for weights we cannot download.

Cache state lives in a :class:`CacheSession` (per-layer cache handles +
the position cursor), so one weight set can serve many concurrent
sequences: the serving runner holds one session per resident request and
advances them independently through :meth:`TinyTransformer.prefill_chunk`
and :meth:`TinyTransformer.decode_step`.  The no-argument methods keep
operating on a default session, preserving the original single-sequence
API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle
from repro.attn.reference import causal_mask, chunked_causal_attention

__all__ = [
    "CacheSession",
    "LayerWeights",
    "TinyTransformer",
    "apply_rope",
    "causal_mask",
    "rms_norm",
    "rope_angles",
    "swiglu",
]


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer norm (LLaMA-style, no mean subtraction)."""
    x = np.asarray(x, dtype=np.float32)
    scale = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x * scale * weight


def rope_angles(
    head_dim: int, positions: np.ndarray, base: float = 10000.0
) -> Tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables for rotary position embedding."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    inv_freq = base ** (-np.arange(0, head_dim, 2, dtype=np.float32) / head_dim)
    angles = np.outer(np.asarray(positions, dtype=np.float32), inv_freq)
    return np.cos(angles), np.sin(angles)


#: Max memoized RoPE tables per model; a decode step plus its prefill
#: context needs two, the rest is slack for interleaved usage patterns.
_ROPE_CACHE_ENTRIES = 8


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate pairs of channels; ``x`` is ``(..., seq, head_dim)``."""
    x = np.asarray(x, dtype=np.float32)
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def swiglu(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """SwiGLU MLP: ``down(silu(x @ gate) * (x @ up))``."""
    gate = x @ w_gate
    gate = gate / (1.0 + np.exp(-gate))  # SiLU
    return (gate * (x @ w_up)) @ w_down


@dataclass
class LayerWeights:
    """Weights of one decoder layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    norm_attn: np.ndarray
    norm_mlp: np.ndarray


@dataclass
class CacheSession:
    """Per-sequence decode state: one cache handle per layer + the cursor.

    ``caches`` holds backend handles (or None per layer until prefill
    creates them); ``ref_k``/``ref_v`` hold the exact-attention reference
    context when no backend is set.  Sessions are cheap: all weights stay
    on the owning :class:`TinyTransformer`.
    """

    caches: List[Optional[KVCacheHandle]] = field(default_factory=list)
    ref_k: List[Optional[np.ndarray]] = field(default_factory=list)
    ref_v: List[Optional[np.ndarray]] = field(default_factory=list)
    positions: int = 0


@dataclass
class TinyTransformer:
    """A decoder-only transformer with a pluggable attention backend.

    ``backend=None`` runs exact FP32 attention (the accuracy reference);
    otherwise all attention flows through the backend's cache — prefill
    packing, residual appends and the Packing-Kernel numerics end to end.
    """

    n_layers: int
    hq: int
    hkv: int
    head_dim: int
    hidden: int
    intermediate: int
    backend: Optional[AttentionBackend] = None
    seed: int = 0
    layers: List[LayerWeights] = field(init=False)
    _rope_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.hq * self.head_dim != self.hidden:
            raise ValueError("hq * head_dim must equal hidden")
        self._session = self.new_session()
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / math.sqrt(self.hidden)
        kv_dim = self.hkv * self.head_dim

        def w(rows, cols):
            return (rng.standard_normal((rows, cols)) * scale).astype(np.float32)

        self.layers = [
            LayerWeights(
                wq=w(self.hidden, self.hidden),
                wk=w(self.hidden, kv_dim),
                wv=w(self.hidden, kv_dim),
                wo=w(self.hidden, self.hidden),
                w_gate=w(self.hidden, self.intermediate),
                w_up=w(self.hidden, self.intermediate),
                w_down=w(self.intermediate, self.hidden),
                norm_attn=np.ones(self.hidden, dtype=np.float32),
                norm_mlp=np.ones(self.hidden, dtype=np.float32),
            )
            for _ in range(self.n_layers)
        ]

    # ------------------------------------------------------------------ plumbing

    @property
    def caches(self) -> List[Optional[KVCacheHandle]]:
        """The default session's per-layer cache handles."""
        return self._session.caches

    def new_session(self, handles: Optional[Sequence[KVCacheHandle]] = None) -> CacheSession:
        """A fresh decode session, optionally over pre-bound cache handles.

        The serving runner passes per-layer paged handles already adopted
        into the engine's page table; plain callers let prefill create
        handles through the backend.
        """
        if handles is not None and len(handles) != self.n_layers:
            raise ValueError(f"expected {self.n_layers} handles, got {len(handles)}")
        return CacheSession(caches=list(handles) if handles is not None else [])

    def release_session(self, session: CacheSession) -> None:
        """Free whatever the session's cache handles pin in the backend.

        For the paged backend this returns the sequences' pages and
        residual slots to the shared pool; contiguous handles have
        nothing pooled to free.  The session is reset to empty and can be
        prefilled again.
        """
        if self.backend is not None:
            for handle in session.caches:
                if handle is not None:
                    self.backend.release(handle)
        session.caches = []
        session.ref_k = []
        session.ref_v = []
        session.positions = 0

    def _rope(self, pos0: int, seq: int) -> Tuple[np.ndarray, np.ndarray]:
        """RoPE (cos, sin) tables for positions ``pos0 .. pos0 + seq``.

        Every layer at a given position uses identical tables, so they are
        memoized on ``(pos0, seq)`` — one trig evaluation per decode step
        (or prefill) instead of one per layer.  Decode positions strictly
        increase, so old per-step entries are never hit again; the cache
        evicts oldest-first past a small bound instead of growing by one
        dead entry per generated token.
        """
        key = (pos0, seq)
        tables = self._rope_cache.get(key)
        if tables is None:
            tables = rope_angles(self.head_dim, np.arange(pos0, pos0 + seq))
            while len(self._rope_cache) >= _ROPE_CACHE_ENTRIES:
                self._rope_cache.pop(next(iter(self._rope_cache)))
            self._rope_cache[key] = tables
        return tables

    def _project_kv(self, layer: LayerWeights, x: np.ndarray, pos0: int):
        """(k, v) heads for tokens ``x`` of shape (batch, seq, hidden)."""
        batch, seq, _ = x.shape
        k = (x @ layer.wk).reshape(batch, seq, self.hkv, self.head_dim)
        v = (x @ layer.wv).reshape(batch, seq, self.hkv, self.head_dim)
        cos, sin = self._rope(pos0, seq)
        k = apply_rope(k.transpose(0, 2, 1, 3), cos, sin)  # (b, hkv, seq, d)
        v = v.transpose(0, 2, 1, 3)
        return k, v

    def _project_q(self, layer: LayerWeights, normed: np.ndarray, pos0: int) -> np.ndarray:
        """RoPE'd queries ``(batch, seq, hq, d)`` for ``normed`` tokens."""
        batch, seq, _ = normed.shape
        q = (normed @ layer.wq).reshape(batch, seq, self.hq, self.head_dim)
        cos, sin = self._rope(pos0, seq)
        q = apply_rope(q.transpose(0, 2, 1, 3), cos, sin)  # (b, hq, seq, d)
        return q.transpose(0, 2, 1, 3)

    # ------------------------------------------------------------------ forward

    def prefill(self, x: np.ndarray, session: Optional[CacheSession] = None) -> np.ndarray:
        """Process a prompt ``(batch, seq, hidden)`` into a fresh context.

        Replacing the default session releases the previous one's backend
        resources first — repeated prefills on a paged backend recycle
        their pages instead of leaking the shared pool.
        """
        if session is None:
            self.release_session(self._session)
            session = self._session = self.new_session()
        if session.positions:
            raise ValueError(
                "prefill on a session that already holds context; use "
                "prefill_chunk to continue it"
            )
        return self.prefill_chunk(x, session)

    def prefill_chunk(self, x: np.ndarray, session: CacheSession) -> np.ndarray:
        """Advance a session by one prefill chunk ``(batch, n, hidden)``.

        Chunk tokens attend the session's cached context unmasked and
        each other causally — the Sarathi/vLLM chunked-prefill forward.
        With a backend, context beyond the FP16 residual is read back
        through the quantized cache (that *is* the numerics of chunked
        prefill over a low-bit cache); without one, the exact reference
        context is used.
        """
        x = np.asarray(x, dtype=np.float32)
        batch, n, _ = x.shape
        sess = session
        pos0 = sess.positions
        if not sess.caches:
            sess.caches = [None] * self.n_layers
        if not sess.ref_k:
            sess.ref_k = [None] * self.n_layers
            sess.ref_v = [None] * self.n_layers
        h = x
        for i, layer in enumerate(self.layers):
            normed = rms_norm(h, layer.norm_attn)
            k, v = self._project_kv(layer, normed, pos0)
            q = self._project_q(layer, normed, pos0)
            if self.backend is not None:
                if sess.caches[i] is None:
                    sess.caches[i] = self.backend.new_handle(batch, self.hkv, self.head_dim)
                attn = self.backend.prefill(q, (k, v), sess.caches[i])
            else:
                attn = chunked_causal_attention(q, sess.ref_k[i], sess.ref_v[i], k, v)
                sess.ref_k[i] = (
                    k if sess.ref_k[i] is None else np.concatenate([sess.ref_k[i], k], axis=2)
                )
                sess.ref_v[i] = (
                    v if sess.ref_v[i] is None else np.concatenate([sess.ref_v[i], v], axis=2)
                )
            attn = attn.reshape(batch, n, self.hidden) @ layer.wo
            h = h + attn
            h = h + swiglu(rms_norm(h, layer.norm_mlp), layer.w_gate, layer.w_up, layer.w_down)
        sess.positions = pos0 + n
        return h

    def decode_step(self, x: np.ndarray, session: Optional[CacheSession] = None) -> np.ndarray:
        """One decode step for ``x`` of shape (batch, hidden)."""
        sess = session if session is not None else self._session
        x = np.asarray(x, dtype=np.float32)
        batch = x.shape[0]
        pos = sess.positions
        h = x[:, None, :]  # (b, 1, hidden)
        for i, layer in enumerate(self.layers):
            normed = rms_norm(h, layer.norm_attn)
            k_new, v_new = self._project_kv(layer, normed, pos)
            q = self._project_q(layer, normed, pos)
            if self.backend is not None:
                handle = sess.caches[i]
                self.backend.append_kv((k_new[:, :, 0], v_new[:, :, 0]), handle)
                attn = self.backend.decode_step(q, handle)
            else:
                sess.ref_k[i] = np.concatenate([sess.ref_k[i], k_new], axis=2)
                sess.ref_v[i] = np.concatenate([sess.ref_v[i], v_new], axis=2)
                attn = self._exact_decode(q, sess.ref_k[i], sess.ref_v[i])
            attn = attn.reshape(batch, 1, self.hidden) @ layer.wo
            h = h + attn
            h = h + swiglu(rms_norm(h, layer.norm_mlp), layer.w_gate, layer.w_up, layer.w_down)
        sess.positions += 1
        return h[:, 0, :]

    def _exact_decode(self, q, k, v) -> np.ndarray:
        """Exact FP32 decode attention, one grouped-query einsum per batch.

        Same softmax as :func:`repro.core.softmax.reference_attention`,
        vectorized over every (batch, query-head) pair at once.
        """
        batch = q.shape[0]
        gq = self.hq // self.hkv
        qg = np.asarray(q[:, 0], dtype=np.float32).reshape(batch, self.hkv, gq, self.head_dim)
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        # math.sqrt, not np.sqrt: a float64 scalar would promote the whole
        # path (and the caller's hidden state) to float64 under NEP 50.
        scale = np.float32(1.0 / math.sqrt(self.head_dim))
        s = np.einsum("bhgd,bhkd->bhgk", qg, k, optimize=True) * scale
        s -= s.max(axis=-1, keepdims=True)
        p = np.exp(s)
        p /= p.sum(axis=-1, keepdims=True)
        out = np.einsum("bhgk,bhkd->bhgd", p, v, optimize=True)
        return out.reshape(batch, 1, self.hq, self.head_dim)
