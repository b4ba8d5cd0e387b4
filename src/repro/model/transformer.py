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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle
from repro.attn.reference import chunked_causal_attention

__all__ = [
    "CacheSession",
    "LayerWeights",
    "TinyTransformer",
    "apply_rope",
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


#: Fewest rows, and fewest ``rows * out_width`` outputs, a projection GEMM
#: runs with.  OpenBLAS routes small products away from its blocked GEMM,
#: to paths whose bits differ: below 4 rows a gemv or a small-matrix
#: kernel, and in the transposed-rows call :func:`_matmul` makes, the TN
#: small-matrix kernel up to about 1200 outputs, which ``tiny``'s 64-wide
#: ``wo`` / ``w_down`` hit under 19 rows.  Zero-padding to both floors
#: keeps every call on the blocked kernel, where a row has the same bits
#: whatever M is, wherever it sits and whatever the other rows hold, and
#: the same bits as the ``(in, out)`` GEMM ``rows @ w.T`` (pinned by
#: ``tests/model/test_row_floor.py``).  So a decoder's hidden state never
#: depends on which other decoders share its step.
_ROW_FLOOR = 4
_OUTPUT_FLOOR = 1201


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis for an ``(out, in)`` weight, as ONE GEMM.

    Computed as ``(w @ rows.T).T`` so BLAS's M is the output width, not
    the few decode rows; rows are zero-padded to the floors above.
    """
    lead = x.shape[:-1]
    out_width = w.shape[0]
    rows = np.ascontiguousarray(x, dtype=np.float32).reshape(-1, x.shape[-1])
    m = rows.shape[0]
    floor = max(_ROW_FLOOR, -(-_OUTPUT_FLOOR // out_width))
    if m < floor:
        padded = np.zeros((floor, rows.shape[1]), np.float32)
        padded[:m] = rows
        rows = padded
    out = np.ascontiguousarray((w @ rows.T)[:, :m].T)
    return out.reshape(lead + (out_width,))


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate pairs of channels; ``x`` is ``(..., seq, head_dim)``."""
    x = np.asarray(x, dtype=np.float32)
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def swiglu(x: np.ndarray, w_gate_up: np.ndarray, w_down: np.ndarray) -> np.ndarray:
    """SwiGLU MLP ``down(silu(gate x) * (up x))``.

    Weights are ``(out, in)``; ``w_gate_up`` stacks ``gate`` over ``up``
    row-wise, so both run as one GEMM.
    """
    gate, up = np.split(_matmul(x, w_gate_up), 2, axis=-1)
    gate = gate / (1.0 + np.exp(-gate))  # SiLU
    return _matmul(gate * up, w_down)


@dataclass
class LayerWeights:
    """Weights of one decoder layer.

    Every projection is stored output-major, ``(out, in)`` like
    ``nn.Linear``.  Projections that read the same input are fused
    row-wise: ``wqkv`` stacks ``wq``, ``wk``, ``wv`` and ``w_gate_up``
    stacks ``gate``, ``up``, so each is one GEMM.
    """

    wqkv: np.ndarray
    wo: np.ndarray
    w_gate_up: np.ndarray
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
    #: Tokens processed so far; a transient batch session may carry one
    #: position per row instead.
    positions: Union[int, np.ndarray] = 0


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

    def __post_init__(self) -> None:
        if self.hq * self.head_dim != self.hidden:
            raise ValueError("hq * head_dim must equal hidden")
        self._session = self.new_session()
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / math.sqrt(self.hidden)
        kv_dim = self.hkv * self.head_dim

        def w(*shapes):
            """``(out, in)`` weights stacked row-wise, each drawn ``(in, out)``.

            Drawn 128 input rows at a time (the same values as one draw), so
            each block is scaled, cast and transposed while it is in cache.
            """
            out = np.empty((sum(n_out for _, n_out in shapes), shapes[0][0]), np.float32)
            row = 0
            for n_in, n_out in shapes:
                for i in range(0, n_in, 128):
                    z = rng.standard_normal((min(128, n_in - i), n_out))
                    z *= scale
                    out[row : row + n_out, i : i + 128] = z.T
                row += n_out
            return out

        # Draw order per layer: wq, wk, wv, wo, gate, up, down.
        self.layers = [
            LayerWeights(
                wqkv=w((self.hidden, self.hidden), (self.hidden, kv_dim), (self.hidden, kv_dim)),
                wo=w((self.hidden, self.hidden)),
                w_gate_up=w((self.hidden, self.intermediate), (self.hidden, self.intermediate)),
                w_down=w((self.intermediate, self.hidden)),
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

    def _attention_inputs(self, layer: LayerWeights, normed: np.ndarray, cos, sin):
        """RoPE'd ``q (b, n, hq, d)`` and ``k, v (b, hkv, n, d)`` from one fused GEMM.

        ``cos``/``sin`` broadcast against ``(b, heads, n, d / 2)``.
        """
        batch, n, _ = normed.shape
        qkv = _matmul(normed, layer.wqkv).reshape(
            batch, n, self.hq + 2 * self.hkv, self.head_dim
        ).transpose(0, 2, 1, 3)
        q = apply_rope(qkv[:, : self.hq], cos, sin).transpose(0, 2, 1, 3)
        k = apply_rope(qkv[:, self.hq : self.hq + self.hkv], cos, sin)
        return q, k, qkv[:, self.hq + self.hkv :]

    def _block_tail(self, layer: LayerWeights, h: np.ndarray, attn: np.ndarray) -> np.ndarray:
        """Output projection, residual adds and the MLP after attention."""
        batch, n, _ = h.shape
        h = h + _matmul(attn.reshape(batch, n, self.hidden), layer.wo)
        return h + swiglu(rms_norm(h, layer.norm_mlp), layer.w_gate_up, layer.w_down)

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
        cos, sin = rope_angles(self.head_dim, np.arange(pos0, pos0 + n))
        h = x
        for i, layer in enumerate(self.layers):
            q, k, v = self._attention_inputs(layer, rms_norm(h, layer.norm_attn), cos, sin)
            if self.backend is not None:
                if sess.caches[i] is None:
                    sess.caches[i] = self.backend.new_handle(batch, self.hkv, self.head_dim)
                attn = self.backend.prefill(q, (k, v), sess.caches[i])
            else:
                attn = self._reference_attention(sess, i, q, k, v)
            h = self._block_tail(layer, h, attn)
        sess.positions = pos0 + n
        return h

    def decode_step(self, x: np.ndarray, session: Optional[CacheSession] = None) -> np.ndarray:
        """One decode step for ``x`` of shape (batch, hidden).

        ``session.positions`` may hold one position per row, so one call
        can advance sequences at different positions together.  Every
        projection is one GEMM over all rows, and a row's output bits do
        not depend on the batch it runs in.
        """
        sess = session if session is not None else self._session
        x = np.asarray(x, dtype=np.float32)
        batch = x.shape[0]
        positions = np.broadcast_to(sess.positions, (batch,))
        cos, sin = rope_angles(self.head_dim, positions)
        cos, sin = cos[:, None, None], sin[:, None, None]  # per row, over (heads, 1)
        h = x[:, None, :]  # (b, 1, hidden)
        for i, layer in enumerate(self.layers):
            q, k_new, v_new = self._attention_inputs(
                layer, rms_norm(h, layer.norm_attn), cos, sin
            )
            if self.backend is not None:
                handle = sess.caches[i]
                self.backend.append_kv((k_new[:, :, 0], v_new[:, :, 0]), handle)
                attn = self.backend.decode_step(q, handle)
            else:
                attn = self._reference_attention(sess, i, q, k_new, v_new)
            h = self._block_tail(layer, h, attn)
        sess.positions = sess.positions + 1
        return h[:, 0, :]

    @staticmethod
    def _reference_attention(sess: CacheSession, i: int, q, k, v) -> np.ndarray:
        """Exact attention over layer ``i``'s reference context, then append ``k``/``v``.

        A decode step is the ``n == 1`` chunk.
        """
        attn = chunked_causal_attention(q, sess.ref_k[i], sess.ref_v[i], k, v)
        if sess.ref_k[i] is None:
            sess.ref_k[i], sess.ref_v[i] = k, v
        else:
            sess.ref_k[i] = np.concatenate([sess.ref_k[i], k], axis=2)
            sess.ref_v[i] = np.concatenate([sess.ref_v[i], v], axis=2)
        return attn
