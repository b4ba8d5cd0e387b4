"""TinyTransformer: the runnable numerics substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attn import PagedBitBackend
from repro.attn.paged import PagedBatchHandle, PagedBitKVCache
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.transformer import (
    CacheSession,
    PrefillChunk,
    TinyTransformer,
    _matmul,
    apply_rope,
    rms_norm,
    rope_angles,
    swiglu,
)


class TestPrimitives:
    def test_rms_norm_unit_scale(self, rng):
        x = rng.standard_normal((4, 16)).astype(np.float32)
        out = rms_norm(x, np.ones(16, dtype=np.float32))
        rms = np.sqrt(np.mean(out * out, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-3)

    def test_rope_preserves_norm(self, rng):
        x = rng.standard_normal((2, 8, 16)).astype(np.float32)
        cos, sin = rope_angles(16, np.arange(8))
        out = apply_rope(x, cos, sin)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-5
        )

    def test_rope_position_zero_is_identity(self, rng):
        x = rng.standard_normal((1, 1, 16)).astype(np.float32)
        cos, sin = rope_angles(16, np.asarray([0]))
        np.testing.assert_allclose(apply_rope(x, cos, sin), x, atol=1e-6)

    def test_rope_relative_dot_products(self, rng):
        """RoPE encodes relative positions: <q_m, k_n> depends on m - n."""
        q = rng.standard_normal(16).astype(np.float32)
        k = rng.standard_normal(16).astype(np.float32)
        cos, sin = rope_angles(16, np.arange(10))
        q_rot = apply_rope(np.tile(q, (10, 1))[None], cos, sin)[0]
        k_rot = apply_rope(np.tile(k, (10, 1))[None], cos, sin)[0]
        d1 = q_rot[5] @ k_rot[3]
        d2 = q_rot[7] @ k_rot[5]  # same offset of 2
        assert d1 == pytest.approx(d2, rel=1e-4, abs=1e-4)

    def test_rope_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_angles(15, np.arange(4))

    def test_swiglu_fused_rows_match_separate_matrices(self, rng):
        x = rng.standard_normal((2, 8)).astype(np.float32)
        # (out, in) int8 codes times a power-of-two step, as the model's weights.
        w_g, w_u, w_d = (
            rng.integers(-127, 128, shape).astype(np.float32) / 64
            for shape in ((16, 8), (16, 8), (8, 16))
        )
        gate = _matmul(x, w_g)
        expected = _matmul(gate / (1.0 + np.exp(-gate)) * _matmul(x, w_u), w_d)
        out = swiglu(x, np.concatenate([w_g, w_u], axis=0), w_d)
        assert out.shape == (2, 8)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)


class TestEndToEnd:
    @pytest.fixture
    def dims(self):
        return dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)

    def test_reference_decode_runs(self, rng, dims):
        model = TinyTransformer(**dims, seed=0)
        x = rng.standard_normal((1, 20, 64)).astype(np.float32)
        model.prefill(x)
        out = model.decode_step(rng.standard_normal((1, 64)).astype(np.float32))
        assert out.shape == (1, 64)
        assert np.all(np.isfinite(out))

    def test_quantized_engine_tracks_reference(self, rng, dims):
        """A full transformer forward through the INT8 cache stays close to
        the exact-attention reference (INT8 error is tiny)."""
        x = rng.standard_normal((1, 40, 64)).astype(np.float32) * 0.5
        steps = [rng.standard_normal((1, 64)).astype(np.float32) * 0.5 for _ in range(3)]

        ref = TinyTransformer(**dims, seed=0)
        ref.prefill(x.copy())
        engine = BitDecoding(
            BitDecodingConfig(bits=8, wn=2), "a100"
        )  # small N_r so the cache actually quantizes
        quant = TinyTransformer(**dims, backend=PagedBitBackend(engine), seed=0)
        quant.prefill(x.copy())

        for step in steps:
            out_ref = ref.decode_step(step.copy())
            out_quant = quant.decode_step(step.copy())
        rel = np.abs(out_quant - out_ref).max() / (np.abs(out_ref).max() + 1e-9)
        assert rel < 0.05

    def test_cache_grows_with_decode(self, rng, dims):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        model = TinyTransformer(**dims, backend=PagedBitBackend(engine), seed=0)
        model.prefill(rng.standard_normal((1, 10, 64)).astype(np.float32))
        assert model._session.caches[0].seq_len == 10
        model.decode_step(rng.standard_normal((1, 64)).astype(np.float32))
        assert model._session.caches[0].seq_len == 11

    @pytest.mark.parametrize("bits", [None, 4], ids=["exact", "paged-int4"])
    def test_decode_step_with_no_rows_returns_no_rows(self, rng, dims, bits):
        """An empty decode batch returns ``(0, hidden)`` and leaves the
        session as it was: the next step reads what it would have."""
        x = rng.standard_normal((1, 10, 64)).astype(np.float32)
        step = rng.standard_normal((1, 64)).astype(np.float32)
        outs = []
        for empty in (False, True):
            backend = bits and PagedBitBackend(BitDecoding(BitDecodingConfig(bits=bits), "a100"))
            model = TinyTransformer(**dims, backend=backend, seed=0)
            model.prefill(x)
            if empty:
                out = model.decode_step(np.zeros((0, 64), np.float32))
                assert out.shape == (0, 64) and out.dtype == np.float32
                assert model._session.positions == 10
            outs.append(model.decode_step(step))
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_prefill_chunk_with_no_rows_returns_no_rows(self, dims):
        model = TinyTransformer(**dims, seed=0)
        session = model.new_session()
        out = model.prefill_chunk(np.zeros((0, 5, 64), np.float32), session)
        assert out.shape == (0, 5, 64) and out.dtype == np.float32
        assert session.positions == 0

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            TinyTransformer(n_layers=1, hq=4, hkv=2, head_dim=16, hidden=63, intermediate=64)


class TestVectorizedAttention:
    """The grouped-query attention paths must match per-head loop semantics."""

    @pytest.mark.parametrize("hq,hkv", [(4, 2), (4, 4), (4, 1)])
    def test_prefill_attention_matches_per_head_loop(self, rng, hq, hkv):
        from repro.attn.reference import chunked_causal_attention

        dims = dict(n_layers=1, hq=hq, hkv=hkv, head_dim=16, hidden=64, intermediate=64)
        model = TinyTransformer(**dims, seed=1)
        layer = model.layers[0]
        normed = rng.standard_normal((2, 12, 64)).astype(np.float32)
        seq = normed.shape[1]
        cos, sin = rope_angles(16, np.arange(seq))
        qkv = _matmul(normed.reshape(24, 64), layer.wqkv).reshape(2, seq, -1)
        qr, k, v = model._rope_qkv(qkv, cos, sin)
        out = _matmul(chunked_causal_attention(qr, None, None, k, v).reshape(24, 64), layer.wo)

        # Per-head loop reference (the pre-vectorization implementation).
        q = _matmul(normed.reshape(24, 64), layer.wqkv[:64]).reshape(2, seq, hq, 16)
        q = apply_rope(q.transpose(0, 2, 1, 3), cos, sin)
        gq = hq // hkv
        per_head = np.empty_like(q)
        for b in range(2):
            for hh in range(hq):
                s = (q[b, hh] @ k[b, hh // gq].T) / np.sqrt(np.float32(16))
                s = s + np.triu(np.full((seq, seq), -np.inf, dtype=np.float32), k=1)
                s = s - s.max(axis=-1, keepdims=True)
                p = np.exp(s)
                p /= p.sum(axis=-1, keepdims=True)
                per_head[b, hh] = p @ v[b, hh // gq]
        expected = _matmul(per_head.transpose(0, 2, 1, 3).reshape(24, 64), layer.wo)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)

    def test_exact_decode_matches_reference_attention(self, rng):
        """Decode without a backend is the ``n == 1`` chunk over the cached context."""
        from repro.attn.reference import chunked_causal_attention
        from repro.core.softmax import reference_attention

        q = rng.standard_normal((2, 1, 4, 16)).astype(np.float32)
        k = rng.standard_normal((2, 2, 9, 16)).astype(np.float32)
        v = rng.standard_normal((2, 2, 9, 16)).astype(np.float32)
        out = chunked_causal_attention(q, k[:, :, :8], v[:, :, :8], k[:, :, 8:], v[:, :, 8:])
        for b in range(2):
            for hh in range(4):
                ref = reference_attention(q[b, 0, hh : hh + 1], k[b, hh // 2], v[b, hh // 2])
                np.testing.assert_allclose(out[b, 0, hh], ref[0], rtol=1e-5, atol=1e-6)

    def test_rope_tables_computed_once_per_forward(self, rng, monkeypatch):
        import repro.model.transformer as transformer

        calls = []

        def counting(head_dim, positions):
            calls.append(np.asarray(positions).tolist())
            return rope_angles(head_dim, positions)

        monkeypatch.setattr(transformer, "rope_angles", counting)
        dims = dict(n_layers=3, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=64)
        model = TinyTransformer(**dims, seed=0)
        model.prefill(rng.standard_normal((1, 8, 64)).astype(np.float32))
        model.decode_step(rng.standard_normal((1, 64)).astype(np.float32))
        # One table per forward, shared by all 3 layers.
        assert calls == [list(range(8)), [8]]


#: ``tiny`` and the bench-gqa geometry the e2e benchmark executes, at two layers.
REPLAY_GEOMETRIES = {
    "tiny": dict(hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128),
    "bench-gqa": dict(hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024),
}


def _replay(
    geometry: str, bits: int, pre: int, prompt: int, tail: int, merged: bool, live=None
):
    """``pre`` context rows, then a chunk of ``prompt`` rows plus a ``tail``
    of replayed decode rows, as ONE forward (``merged``, reading its last
    ``live`` rows) or as ``prefill_chunk`` on the prompt rows plus one
    ``decode_step`` per tail row.  Returns the chunk's hidden rows, the
    per-layer stores (separate, as in the serving runner) and the session.
    ``N_r`` is 32 (INT4) or 64 (INT2); ``bits=None`` runs exact attention,
    with no stores."""
    dims = REPLAY_GEOMETRIES[geometry]
    if bits is None:
        model = TinyTransformer(n_layers=2, seed=3, **dims)
        stores, session = [], model.new_session()
    else:
        config = BitDecodingConfig(bits=bits, wn=1)
        model = TinyTransformer(n_layers=2, backend=PagedBitBackend(config), seed=3, **dims)
        stores = [
            PagedBitKVCache(config, dims["hkv"], dims["head_dim"], n_pages=8, n_slots=1)
            for _ in model.layers
        ]
        session = model.new_session([PagedBatchHandle(s, [s.add_sequence()]) for s in stores])
    rng = np.random.default_rng([geometry == "tiny", bits or 0, pre, prompt, tail])
    rows = (rng.standard_normal((pre + prompt + tail, dims["hidden"])) * 0.25).astype(np.float32)
    if pre:
        model.prefill_chunk(rows[None, :pre], session)
    chunk = rows[pre:]
    if merged:
        hidden = model.prefill_chunk(chunk[None], session, decode_tail=tail, live_rows=live)[0]
    else:
        outs = [model.prefill_chunk(chunk[None, :prompt], session)[0]] if prompt else []
        outs += [model.decode_step(row[None], session) for row in chunk[prompt:]]
        hidden = np.concatenate(outs)
    assert session.positions == pre + prompt + tail
    return hidden, stores, session


def _assert_same_cache(stores_a, stores_b, session_a=None, session_b=None):
    """Every layer store's pools and residual slots, and the sessions'
    exact reference context when given, byte for byte."""
    for a, b in zip(stores_a, stores_b, strict=True):
        for pool_a, pool_b in zip(a.pools, b.pools, strict=True):
            assert pool_a.tobytes() == pool_b.tobytes()
        assert a.res_k.tobytes() == b.res_k.tobytes()
        assert a.res_v.tobytes() == b.res_v.tobytes()
    for name in ("ref_k", "ref_v") if session_a is not None else ():
        refs = zip(getattr(session_a, name), getattr(session_b, name), strict=True)
        for a, b in refs:
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


class TestReplayTail:
    """A replayed decode tail shares the chunk's forward bit for bit, and
    reading only a chunk's trailing rows moves neither them nor the cache."""

    @settings(max_examples=20, deadline=None)
    @given(
        geometry=st.sampled_from(sorted(REPLAY_GEOMETRIES)),
        bits=st.sampled_from([None, 2, 4]),
        pre=st.integers(0, 40),
        prompt=st.integers(0, 40),
        tail=st.integers(0, 70),
        live=st.one_of(st.none(), st.integers(0, 3), st.integers(0, 110)),
    )
    # Row floor 4, tiny's output floor of 19 rows, N_r flushes (INT4 at
    # 32 and 64 tokens, INT2 at 64), a tail-only chunk past the prompt end,
    # and the 128 + 33 rows of a replayed bench-gqa chunk; then the
    # runner's live rows (the last row, or none) on prompt-only and
    # replay chunks, a live run across the prompt/tail seam, and exact
    # attention.
    @example(geometry="tiny", bits=4, pre=0, prompt=1, tail=3, live=None)
    @example(geometry="tiny", bits=4, pre=5, prompt=0, tail=19, live=None)
    @example(geometry="tiny", bits=2, pre=30, prompt=3, tail=70, live=None)
    @example(geometry="bench-gqa", bits=4, pre=20, prompt=0, tail=4, live=None)
    @example(geometry="bench-gqa", bits=4, pre=0, prompt=128, tail=33, live=None)
    @example(geometry="bench-gqa", bits=4, pre=0, prompt=128, tail=0, live=1)
    @example(geometry="bench-gqa", bits=4, pre=32, prompt=40, tail=0, live=0)
    @example(geometry="tiny", bits=4, pre=0, prompt=40, tail=30, live=1)
    @example(geometry="tiny", bits=2, pre=10, prompt=30, tail=5, live=9)
    @example(geometry="tiny", bits=None, pre=5, prompt=7, tail=9, live=12)
    @example(geometry="tiny", bits=None, pre=5, prompt=7, tail=0, live=0)
    def test_merged_forward_equals_prefill_then_decode_steps(
        self, geometry, bits, pre, prompt, tail, live
    ):
        if pre + prompt == 0 or prompt + tail == 0:
            return  # a chunk holds a row, and a decode row follows a prompt row
        live = None if live is None else min(live, prompt + tail)
        merged, merged_stores, merged_session = _replay(
            geometry, bits, pre, prompt, tail, merged=True, live=live
        )
        stepped, stepped_stores, stepped_session = _replay(
            geometry, bits, pre, prompt, tail, merged=False
        )
        expected = stepped if live is None else stepped[len(stepped) - live :]
        assert merged.shape == expected.shape
        assert merged.tobytes() == expected.tobytes()
        _assert_same_cache(merged_stores, stepped_stores, merged_session, stepped_session)

    def test_exact_reference_context_matches_too(self):
        merged, _, merged_session = _replay("tiny", None, 5, 7, 9, merged=True)
        stepped, _, stepped_session = _replay("tiny", None, 5, 7, 9, merged=False)
        assert merged.tobytes() == stepped.tobytes()
        _assert_same_cache([], [], merged_session, stepped_session)

    def test_tail_longer_than_the_chunk_is_rejected(self):
        model = TinyTransformer(n_layers=1, seed=0, **REPLAY_GEOMETRIES["tiny"])
        with pytest.raises(ValueError, match="decode_tail"):
            model.prefill_chunk(np.zeros((1, 2, 64), np.float32), model.new_session(), 3)

    def test_more_live_rows_than_the_chunk_is_rejected(self):
        model = TinyTransformer(n_layers=1, seed=0, **REPLAY_GEOMETRIES["tiny"])
        with pytest.raises(ValueError, match="live_rows"):
            model.prefill_chunk(np.zeros((1, 2, 64), np.float32), model.new_session(), 0, 3)

    def test_live_rows_of_a_batched_chunk_are_per_member(self, rng):
        """``(batch, live_rows, hidden)``: each member's trailing rows."""
        model = TinyTransformer(n_layers=2, seed=0, **REPLAY_GEOMETRIES["tiny"])
        x = rng.standard_normal((3, 6, 64)).astype(np.float32)
        full = model.prefill_chunk(x, model.new_session())
        live = model.prefill_chunk(x, model.new_session(), live_rows=2)
        assert live.shape == (3, 2, 64)
        assert live.tobytes() == np.ascontiguousarray(full[:, -2:]).tobytes()


def _mixed(geometry: str, bits: int, chunks, contexts, merged: bool, lives=None):
    """One scheduler step's rows over separate sessions sharing per-layer
    stores (as in the serving runner): a chunk per ``(pre, prompt, tail)``
    (``pre`` rows of context first) and one decode batch over sessions
    holding ``contexts`` tokens each.  Run as ONE forward (``merged``:
    ``decode_step(..., chunks=...)``, chunk ``j`` reading its last
    ``lives[j]`` rows) or as separate forwards: per chunk,
    ``prefill_chunk`` on its prompt rows and one ``decode_step`` per tail
    row, then one batched ``decode_step``.  Returns the step's hidden rows
    and the stores."""
    dims = REPLAY_GEOMETRIES[geometry]
    config = BitDecodingConfig(bits=bits, wn=1)
    model = TinyTransformer(n_layers=2, backend=PagedBitBackend(config), seed=3, **dims)
    n_seqs = len(chunks) + len(contexts)
    stores = [
        PagedBitKVCache(config, dims["hkv"], dims["head_dim"], n_pages=4 * n_seqs, n_slots=n_seqs)
        for _ in model.layers
    ]
    seqs = [[store.add_sequence() for store in stores] for _ in range(n_seqs)]
    sessions = [
        model.new_session([PagedBatchHandle(s, [h]) for s, h in zip(stores, handles)])
        for handles in seqs
    ]
    rng = np.random.default_rng([geometry == "tiny", bits, *np.ravel(chunks), *contexts])

    def rows(n):
        return (rng.standard_normal((n, dims["hidden"])) * 0.25).astype(np.float32)

    for session, n in zip(sessions, [pre for pre, _, _ in chunks] + list(contexts)):
        if n:
            model.prefill_chunk(rows(n)[None], session)
    xs = [rows(prompt + tail) for _, prompt, tail in chunks]
    decoders = seqs[len(chunks) :]
    batch = CacheSession(
        caches=[PagedBatchHandle(s, [h[i] for h in decoders]) for i, s in enumerate(stores)],
        positions=np.array(contexts, dtype=np.int64),
    )
    x = rows(len(contexts))
    if merged:
        lives = lives or [None] * len(chunks)
        held = [
            PrefillChunk(c[None], s, tail, live)
            for c, s, (_, _, tail), live in zip(xs, sessions, chunks, lives)
        ]
        hidden = model.decode_step(x, batch, chunks=held)
    else:
        outs = []
        for c, session, (_, prompt, _) in zip(xs, sessions, chunks):
            if prompt:
                outs.append(model.prefill_chunk(c[None, :prompt], session)[0])
            outs += [model.decode_step(row[None], session) for row in c[prompt:]]
        if contexts:
            outs.append(model.decode_step(x, batch))
        hidden = np.concatenate(outs)
    for session, (pre, prompt, tail) in zip(sessions, chunks):
        assert session.positions == pre + prompt + tail
    assert list(batch.positions) == [n + 1 for n in contexts]
    return hidden, stores


#: One chunk's ``(pre, prompt, tail)``: a chunk holds a row, and a decode
#: row follows a prompt row.
_CHUNK = st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 20)).filter(
    lambda c: c[0] + c[1] > 0 and c[1] + c[2] > 0
)


class TestMergedStep:
    """A step's prefill chunks share its decode rows' forward bit for bit,
    and reading only each chunk's trailing rows moves neither them nor the
    cache."""

    @settings(max_examples=10, deadline=None)
    @given(
        geometry=st.sampled_from(sorted(REPLAY_GEOMETRIES)),
        bits=st.sampled_from([2, 4]),
        chunks=st.lists(_CHUNK, min_size=1, max_size=3),
        contexts=st.lists(st.integers(1, 70), max_size=4),
        lives=st.lists(st.one_of(st.none(), st.integers(0, 1), st.integers(0, 60)), max_size=3),
    )
    # Chunks alone, a 1-row step under the row floor, tiny's ragged
    # decoders across an N_r flush, and bench-gqa's 128-token chunk plus
    # four decoders (prefill_shared's mixed step); then the runner's live
    # rows: the completing chunk's last row beside dead chunks, a dead
    # replay chunk, and a step with no live chunk row.
    @example(geometry="tiny", bits=4, chunks=[(0, 5, 0), (3, 2, 1)], contexts=[], lives=[])
    @example(geometry="tiny", bits=4, chunks=[(0, 1, 0)], contexts=[], lives=[])
    @example(geometry="tiny", bits=2, chunks=[(40, 23, 1)], contexts=[31, 63, 64, 1], lives=[])
    @example(
        geometry="bench-gqa",
        bits=4,
        chunks=[(0, 40, 0)] * 2 + [(31, 0, 20)],
        contexts=[1],
        lives=[],
    )
    @example(
        geometry="bench-gqa", bits=4, chunks=[(0, 128, 0)], contexts=[32, 33, 95, 100], lives=[]
    )
    @example(
        geometry="bench-gqa",
        bits=4,
        chunks=[(0, 128, 0), (128, 40, 0)],
        contexts=[32, 33],
        lives=[0, 1],
    )
    @example(geometry="tiny", bits=4, chunks=[(31, 2, 5), (0, 9, 0)], contexts=[7], lives=[0, 0])
    @example(geometry="tiny", bits=2, chunks=[(0, 20, 0)], contexts=[], lives=[0])
    def test_one_forward_equals_a_forward_per_chunk_then_decode(
        self, geometry, bits, chunks, contexts, lives
    ):
        sizes = [prompt + tail for _, prompt, tail in chunks]
        lives = [None if live is None else min(live, n) for live, n in zip(lives, sizes)]
        lives += [None] * (len(chunks) - len(lives))
        merged, merged_stores = _mixed(geometry, bits, chunks, contexts, merged=True, lives=lives)
        stepped, stepped_stores = _mixed(geometry, bits, chunks, contexts, merged=False)
        # The all-rows forward's rows, each chunk cut to its trailing live rows.
        ends = np.cumsum(sizes)
        expected = np.concatenate(
            [stepped[end - (n if live is None else live) : end]
             for end, n, live in zip(ends, sizes, lives)]
            + [stepped[len(stepped) - len(contexts) :]]
        )
        assert merged.shape == expected.shape
        assert merged.tobytes() == expected.tobytes()
        _assert_same_cache(merged_stores, stepped_stores)
