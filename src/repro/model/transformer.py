"""A small runnable numpy transformer decoder.

A functional substrate for end-to-end *numerics*: RMSNorm, RoPE, attention
through an :class:`~repro.attn.protocol.AttentionBackend` (the paged
low-bit cache, or the exact FP16 reference when no backend is set), and a SwiGLU MLP.  Used by the integration tests, the
LongBench-proxy accuracy suite and the serving engine's real-execution
mode (:class:`~repro.attn.runner.ModelRunner`) to push real activations
through the real quantized-cache code paths — not to reproduce
trained-model quality, which per the README's reproduction contract is out
of scope for weights we cannot download.

Cache state lives in a :class:`CacheSession` (per-layer cache handles +
the position cursor), so one weight set can serve many concurrent
sequences: the serving runner holds one session per resident request and
advances them through :meth:`TinyTransformer.prefill_chunk` and
:meth:`TinyTransformer.decode_step`, both thin entry points over one
layer-major forward that takes any mix of rows: a decode step may carry
other sessions' prefill chunks (:class:`PrefillChunk`), so a scheduler
step's chunk rows and decode rows share every projection GEMM.  The
no-argument methods keep operating on a default session, preserving the
original single-sequence API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle
from repro.attn.reference import chunked_causal_attention
from repro.core.softmax import SMALL_GEMM_MNK, SMALL_GEMM_OUTPUTS

__all__ = [
    "CacheSession",
    "LayerWeights",
    "PrefillChunk",
    "TinyTransformer",
    "apply_rope",
    "rms_norm",
    "rope_angles",
    "swiglu",
]


def rms_norm(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Root-mean-square layer norm (LLaMA-style, no mean subtraction, eps 1e-5)."""
    x = np.asarray(x, dtype=np.float32)
    scale = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + 1e-5)
    return x * scale * weight


def rope_angles(head_dim: int, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cos, sin) tables for rotary position embedding (base 10000)."""
    if head_dim % 2 != 0:
        raise ValueError("head_dim must be even for RoPE")
    inv_freq = 10000.0 ** (-np.arange(0, head_dim, 2, dtype=np.float32) / head_dim)
    angles = np.outer(np.asarray(positions, dtype=np.float32), inv_freq)
    return np.cos(angles), np.sin(angles)


#: Largest K at which a float32 GEMM of int8 codes is exact: every partial
#: sum is an integer below ``K * 127**2 < 2**24`` (times the weights'
#: power-of-two step), so float32 holds it whatever the order.  Past it
#: :func:`_matmul` runs in float64, still exact; no executed model gets there
#: (bench-gqa's widest K is ``w_down``'s 1024).
_EXACT_K = 1040
#: Narrowest output tile :func:`_matmul` runs on OpenBLAS's no-pack small
#: kernel; below it one blocked call is faster.  A 16-GEMM bench-gqa pass
#: (36 MB of weights, one OpenBLAS thread, SkylakeX) read tiled in half the
#: blocked time at M = 4 and faster in 9 of 9 rounds down to 85-row tiles
#: (M = 14 at K = 512), but slower in 7 of 9 at 75 rows (M = 16, where the
#: blocked kernel fills its register blocks; decode_burst's batch).
_MIN_TILE = 80
#: Codes per int16 row block of a :class:`TinyTransformer` weight draw: a
#: 512 KB temporary, not one the size of the weight.
_DRAW_VALUES = 1 << 18


def _matmul(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows @ w.T`` for ``(m, in)`` rows and an ``(out, in)`` weight, in exact W8A8.

    Each row is quantized to int8 codes with one absmax scale per row; the
    weight already holds int8 codes times one power-of-two step (see
    :class:`TinyTransformer`).  So the GEMM sums integers exactly (float32
    up to ``_EXACT_K``, float64 past it), and a row's bits depend on
    nothing but the row: not on M, on the other rows, on the summation
    order or on the BLAS kernel set.  That frees the GEMM to take the
    fastest kernel for its shape: ``codes_w[o:o+t] @ codes_x.T`` over
    output tiles of ``t`` rows that fit the small kernel's bounds
    (``core/softmax.py``), or one blocked call when such a tile would be
    narrower than ``_MIN_TILE``.  Both write one ``(out, m)`` buffer, and
    one rescale pass writes the C-order ``(m, out)`` result.
    """
    m, k = rows.shape
    out = w.shape[0]
    if not m:
        return np.empty((0, out), np.float32)
    scale = np.abs(rows).max(axis=1, keepdims=True) / np.float32(127)
    codes = rows / np.maximum(scale, np.finfo(np.float32).tiny)
    np.rint(codes, out=codes)
    if k > _EXACT_K:
        codes, w = codes.astype(np.float64), w.astype(np.float64)
    acc = np.empty((out, m), codes.dtype)
    tile = min(SMALL_GEMM_OUTPUTS // m, SMALL_GEMM_MNK // (m * k))
    if tile < _MIN_TILE:
        tile = out
    for o in range(0, out, tile):
        np.matmul(w[o : o + tile], codes.T, out=acc[o : o + tile])
    return np.multiply(acc.T, scale, out=np.empty((m, out), np.float32))


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

    Weights are ``(out, in)`` and ``x`` is ``(rows, in)``; ``w_gate_up``
    stacks ``gate`` over ``up`` row-wise, so both run as one GEMM.
    """
    gate, up = np.split(_matmul(x, w_gate_up), 2, axis=-1)
    gate = gate / (1.0 + np.exp(-gate))  # SiLU
    return _matmul(gate * up, w_down)


@dataclass
class LayerWeights:
    """Weights of one decoder layer.

    Every projection is stored output-major, ``(out, in)`` like
    ``nn.Linear``, as int8 codes times one power-of-two step, exact in
    float32 (drawn as :class:`TinyTransformer` says; :func:`_matmul`
    multiplies them exactly).  Projections that read the same input are
    fused row-wise: ``wqkv`` stacks ``wq``, ``wk``, ``wv`` and
    ``w_gate_up`` stacks ``gate``, ``up``, so each is one GEMM.
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


class PrefillChunk(NamedTuple):
    """One session's prefill chunk ``x (batch, n, hidden)`` in a forward.

    Its last ``decode_tail`` rows are replayed decode tokens.  Its last
    ``live_rows`` rows (per batch member; None: all ``n``) are the ones
    whose hidden state the caller reads: the forward returns only those,
    and runs the final layer's attention read, ``wo`` and MLP only for
    them (see :meth:`TinyTransformer._forward`).
    """

    x: np.ndarray
    session: CacheSession
    decode_tail: int = 0
    live_rows: Optional[int] = None


@dataclass
class TinyTransformer:
    """A decoder-only transformer with a pluggable attention backend.

    ``backend=None`` runs exact FP32 attention (the accuracy reference);
    otherwise all attention flows through the backend's cache — prefill
    packing, residual appends and the Packing-Kernel numerics end to end.

    Weights are random codes from ``seed``, uniform in ``[-a, a]`` with ``a``
    in [63, 127] (``nn.Linear``'s init family), at variance ``1 / hidden`` +-2 %.
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
        bound = math.sqrt(3 / self.hidden)  # a uniform draw's bound at variance 1 / hidden
        step = 2.0 ** math.ceil(math.log2(bound / 127))
        a = math.floor(bound / step)
        kv_dim = self.hkv * self.head_dim

        def w(n_out, n_in):
            """``(n_out, n_in)`` codes drawn as int16 row blocks, each scaled by one multiply."""
            out = np.empty((n_out, n_in), np.float32)
            rows = max(1, _DRAW_VALUES // n_in)
            for o in range(0, n_out, rows):
                codes = rng.integers(-a, a + 1, (min(rows, n_out - o), n_in), dtype=np.int16)
                np.multiply(codes, np.float32(step), out=out[o : o + rows])
            return out

        # Draw order per layer: wq, wk, wv, wo, gate, up, down (fused row-wise).
        self.layers = [
            LayerWeights(
                wqkv=w(self.hidden + 2 * kv_dim, self.hidden),
                wo=w(self.hidden, self.hidden),
                w_gate_up=w(2 * self.intermediate, self.hidden),
                w_down=w(self.hidden, self.intermediate),
                norm_attn=np.ones(self.hidden, dtype=np.float32),
                norm_mlp=np.ones(self.hidden, dtype=np.float32),
            )
            for _ in range(self.n_layers)
        ]

    # ------------------------------------------------------------------ plumbing

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
        residual slots to the shared pool.  The session is reset to empty
        and can be prefilled again.
        """
        if self.backend is not None:
            for handle in session.caches:
                if handle is not None:
                    self.backend.release(handle)
        session.caches = []
        session.ref_k = []
        session.ref_v = []
        session.positions = 0

    def _rope_qkv(self, qkv: np.ndarray, cos, sin):
        """RoPE'd ``q (b, n, hq, d)`` and ``k, v (b, hkv, n, d)`` from fused
        ``wqkv`` outputs ``(b, n, (hq + 2 hkv) d)``.

        ``cos``/``sin`` broadcast against ``(b, heads, n, d / 2)``.
        """
        batch, n, _ = qkv.shape
        qkv = qkv.reshape(batch, n, self.hq + 2 * self.hkv, self.head_dim).transpose(0, 2, 1, 3)
        q = apply_rope(qkv[:, : self.hq], cos, sin).transpose(0, 2, 1, 3)
        k = apply_rope(qkv[:, self.hq : self.hq + self.hkv], cos, sin)
        return q, k, qkv[:, self.hq + self.hkv :]

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

    def prefill_chunk(
        self,
        x: np.ndarray,
        session: CacheSession,
        decode_tail: int = 0,
        live_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Advance a session by one prefill chunk ``(batch, n, hidden)``.

        Chunk tokens attend the session's cached context unmasked and
        each other causally — the Sarathi/vLLM chunked-prefill forward.
        With a backend, context beyond the FP16 residual is read back
        through the quantized cache (that *is* the numerics of chunked
        prefill over a low-bit cache); without one, the exact reference
        context is used.

        The last ``decode_tail`` rows are replayed decode tokens (a
        recomputed sequence's consumed decode inputs): they share the
        chunk's projection GEMMs, then each appends its K/V and attends
        the cache as its own decode step, after the prompt rows (see
        :meth:`_forward`).

        Returns the hidden states of the last ``live_rows`` rows of each
        batch member, ``(batch, live_rows, hidden)`` (None: every row).
        The other rows still write their K/V in every layer, but stop
        before the final layer's attention read.
        """
        x = np.asarray(x, dtype=np.float32)
        batch, n, hidden = x.shape
        live = n if live_rows is None else live_rows
        chunk = PrefillChunk(x, session, decode_tail, live_rows)
        return self._forward([chunk]).reshape(batch, live, hidden)

    def decode_step(
        self,
        x: np.ndarray,
        session: Optional[CacheSession] = None,
        chunks: Sequence[PrefillChunk] = (),
    ) -> np.ndarray:
        """One decode step for ``x`` of shape (batch, hidden).

        ``session.positions`` may hold one position per row, so one call
        can advance sequences at different positions together.  Every
        projection is one GEMM over all rows, and a row's output bits do
        not depend on the batch it runs in.

        ``chunks`` are other sessions' prefill chunks riding the same
        forward ahead of the decode rows: their rows share every
        projection GEMM, and each chunk's attention runs before the
        decoders', in order.  Returns the read rows' hidden states, flat:
        each chunk's live rows (all ``batch * n`` unless it sets
        ``live_rows``), then ``x``'s rows.
        """
        sess = session if session is not None else self._session
        x = np.asarray(x, dtype=np.float32)
        return self._forward([*chunks, PrefillChunk(x[:, None, :], sess, decode_tail=1)])

    def _forward(self, chunks: Sequence[PrefillChunk]) -> np.ndarray:
        """The one layer-major forward: every chunk's live rows, flat ``(rows, hidden)``.

        A decode batch is the ``n == 1`` chunk that is all tail; its
        session may hold one position per row.  Each projection is ONE
        GEMM over every chunk's rows; norms, RoPE and the MLP are
        row-local.  Per layer, attention runs per chunk in the given
        order: the prompt rows as chunked prefill, then each tail row's
        ``append_kv`` + ``decode_step`` on the chunk's handle.  So every
        layer's cache sees the call sequence of one forward per chunk,
        and since a projection row's bits do not depend on the other rows
        (the W8A8 GEMMs of :func:`_matmul` are exact), neither do the
        outputs.  A session may appear in at most one chunk.

        Only a chunk's ``live_rows`` trailing rows (per batch member) are
        returned, in chunk order, so only they run the final layer past
        its ``wqkv`` GEMM: a dead row there writes its K/V (prompt rows
        through ``backend.prefill(None, ...)``, tail rows through
        ``append_kv``) and skips the attention read, ``wo`` and the MLP.
        A live prompt row keeps its chunk's whole prefill attention and is
        sliced out of it: attending its query alone would change the score
        GEMM's N, and with it the row's bits.  The ``wqkv`` GEMM is not
        cut down to the dead rows' K/V outputs.
        """
        segments, rows, live_index = [], [], []
        start = 0
        for x, sess, tail, live_rows in chunks:
            batch, n, _ = x.shape
            live = n if live_rows is None else live_rows
            if not 0 <= tail <= n:
                raise ValueError(f"decode_tail ({tail}) must lie in [0, {n}]")
            if not 0 <= live <= n:
                raise ValueError(f"live_rows ({live}) must lie in [0, {n}]")
            if not batch * n:
                continue
            if not sess.caches:
                sess.caches = [None] * self.n_layers
            if not sess.ref_k:
                sess.ref_k = [None] * self.n_layers
                sess.ref_v = [None] * self.n_layers
            if np.ndim(sess.positions):  # one position per row, over (heads, 1)
                cos, sin = rope_angles(self.head_dim, sess.positions)
                cos, sin = cos[:, None, None], sin[:, None, None]
            else:
                cos, sin = rope_angles(self.head_dim, np.arange(sess.positions, sess.positions + n))
            segments.append((sess, batch, n, n - tail, live, cos, sin))
            rows.append(np.asarray(x, dtype=np.float32).reshape(batch * n, self.hidden))
            member_starts = start + n * np.arange(batch)[:, None]
            live_index.append((member_starts + np.arange(n - live, n)).ravel())
            start += batch * n
        if not rows:
            return np.empty((0, self.hidden), np.float32)
        h = np.concatenate(rows)
        live = np.concatenate(live_index)
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            attn = self._attention(i, layer, h, segments, final=i == last)
            if i == last and len(live) < len(h):
                h = h[live]
            if len(h):
                h = h + _matmul(attn, layer.wo)
                h = h + swiglu(rms_norm(h, layer.norm_mlp), layer.w_gate_up, layer.w_down)
        for sess, _, n, *_ in segments:
            sess.positions = sess.positions + n
        return h

    def _attention(
        self, i: int, layer: LayerWeights, h: np.ndarray, segments, final: bool
    ) -> Optional[np.ndarray]:
        """Layer ``i``'s attention rows ``(rows, hidden)``: one fused ``wqkv``
        GEMM over every row, then attention per chunk, in order.  In the
        ``final`` layer only each chunk's live rows attend and are returned
        (None when there are none)."""
        qkv = _matmul(rms_norm(h, layer.norm_attn), layer.wqkv)
        parts, start = [], 0
        for sess, batch, n, prompt, live, cos, sin in segments:
            stop = start + batch * n
            q, k, v = self._rope_qkv(qkv[start:stop].reshape(batch, n, -1), cos, sin)
            start = stop
            live = live if final else n
            attn = self._chunk_attention(sess, i, q, k, v, prompt, live)
            if live:
                parts.append(attn.reshape(batch * live, self.hidden))
        return np.concatenate(parts) if parts else None

    def _chunk_attention(
        self, sess: CacheSession, i: int, q, k, v, prompt: int, live: int
    ) -> Optional[np.ndarray]:
        """One chunk's attention in layer ``i`` for its last ``live`` rows
        (None when 0): every row's K/V is written, the first ``prompt`` rows
        as chunked prefill, then each later row as its own decode step.
        Prompt rows attend only when one of them is live, tail rows each
        when it is."""
        n = q.shape[1]
        first_live = n - live
        parts = []
        if prompt:
            qp = q[:, :prompt] if first_live < prompt else None
            kp, vp = k[:, :, :prompt], v[:, :, :prompt]
            if self.backend is not None:
                if sess.caches[i] is None:
                    sess.caches[i] = self.backend.new_handle(len(q), self.hkv, self.head_dim)
                out = self.backend.prefill(qp, (kp, vp), sess.caches[i])
            else:
                out = self._reference_attention(sess, i, qp, kp, vp)
            if qp is not None:
                parts.append(out[:, first_live:])
        for t in range(prompt, n):
            row = slice(t, t + 1)
            qt = q[:, row] if t >= first_live else None
            out = self._decode_attention(sess, i, qt, k[:, :, row], v[:, :, row])
            if out is not None:
                parts.append(out)
        if len(parts) <= 1:
            return parts[0] if parts else None
        return np.concatenate(parts, axis=1)

    def _decode_attention(self, sess: CacheSession, i: int, q, k, v) -> Optional[np.ndarray]:
        """One decode row per sequence (``q (b, 1, hq, d)``, ``k, v (b, hkv, 1, d)``)
        through layer ``i``: append its K/V, then attend the cache (unless
        ``q`` is None)."""
        if self.backend is None:
            return self._reference_attention(sess, i, q, k, v)
        handle = sess.caches[i]
        self.backend.append_kv((k[:, :, 0], v[:, :, 0]), handle)
        return None if q is None else self.backend.decode_step(q, handle)

    @staticmethod
    def _reference_attention(sess: CacheSession, i: int, q, k, v) -> Optional[np.ndarray]:
        """Exact attention over layer ``i``'s reference context (None when
        ``q`` is None), then append ``k``/``v``.

        A decode step is the ``n == 1`` chunk.
        """
        attn = None
        if q is not None:
            attn = chunked_causal_attention(q, sess.ref_k[i], sess.ref_v[i], k, v)
        if sess.ref_k[i] is None:
            sess.ref_k[i], sess.ref_v[i] = k, v
        else:
            sess.ref_k[i] = np.concatenate([sess.ref_k[i], k], axis=2)
            sess.ref_v[i] = np.concatenate([sess.ref_v[i], v], axis=2)
        return attn
