"""TinyTransformer: the runnable numerics substrate."""

import numpy as np
import pytest

from repro.attn import ContiguousBitBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.transformer import (
    TinyTransformer,
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
        w_g = rng.standard_normal((16, 8)).astype(np.float32)  # (out, in)
        w_u = rng.standard_normal((16, 8)).astype(np.float32)
        w_d = rng.standard_normal((8, 16)).astype(np.float32)
        gate = x @ w_g.T
        expected = (gate / (1.0 + np.exp(-gate)) * (x @ w_u.T)) @ w_d.T
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
        quant = TinyTransformer(**dims, backend=ContiguousBitBackend(engine), seed=0)
        quant.prefill(x.copy())

        for step in steps:
            out_ref = ref.decode_step(step.copy())
            out_quant = quant.decode_step(step.copy())
        rel = np.abs(out_quant - out_ref).max() / (np.abs(out_ref).max() + 1e-9)
        assert rel < 0.05

    def test_cache_grows_with_decode(self, rng, dims):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        model = TinyTransformer(**dims, backend=ContiguousBitBackend(engine), seed=0)
        model.prefill(rng.standard_normal((1, 10, 64)).astype(np.float32))
        assert model.caches[0].seq_len == 10
        model.decode_step(rng.standard_normal((1, 64)).astype(np.float32))
        assert model.caches[0].seq_len == 11

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
        qr, k, v = model._attention_inputs(layer, normed, cos, sin)
        out = chunked_causal_attention(qr, None, None, k, v).reshape(2, 12, 64) @ layer.wo.T

        # Per-head loop reference (the pre-vectorization implementation).
        q = (normed @ layer.wqkv[:64].T).reshape(2, seq, hq, 16)
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
        expected = per_head.transpose(0, 2, 1, 3).reshape(2, seq, 64) @ layer.wo.T
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
