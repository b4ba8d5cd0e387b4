"""Cross-module integration: long decode loops, flush boundaries, and the
numerics contract between prefill packing and decode kernels."""

import numpy as np
import pytest

from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.softmax import reference_attention


def _reference(q, k, v):
    batch, q_len, hq, d = q.shape
    hkv = k.shape[1]
    gq = hq // hkv
    out = np.empty((batch, q_len, hq, d), dtype=np.float32)
    for b in range(batch):
        for h in range(hq):
            out[b, 0, h] = reference_attention(
                q[b, 0, h : h + 1].astype(np.float32),
                k[b, h // gq].astype(np.float32),
                v[b, h // gq].astype(np.float32),
            )
    return out


class TestDecodeLoop:
    @pytest.mark.parametrize("bits", [4, 2])
    def test_multi_step_decode_stays_accurate(self, rng, bits):
        """Decode across a flush boundary: every step's output must track
        the exact-FP16 reference within quantization tolerance."""
        config = BitDecodingConfig(bits=bits)
        engine = BitDecoding(config, "a100")
        nr = config.residual_block_size
        seq0 = nr * 2 - 3  # residual nearly full: appends will flush
        k = rng.standard_normal((1, 2, seq0, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, seq0, 32)).astype(np.float16)
        cache = engine.prefill(k, v)

        k_all, v_all = k, v
        worst = 0.0
        for step in range(6):
            k_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
            v_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
            cache.append_token(k_new, v_new)
            k_all = np.concatenate([k_all, k_new[:, :, None]], axis=2)
            v_all = np.concatenate([v_all, v_new[:, :, None]], axis=2)
            q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
            out = engine.decode(q, cache)
            ref = _reference(q, k_all, v_all)
            worst = max(worst, float(np.max(np.abs(out - ref))))
        tol = 0.08 if bits == 4 else 0.35
        assert worst < tol

    def test_flush_preserves_token_order(self, rng):
        """Tokens must come back from packed blocks in append order."""
        config = BitDecodingConfig(bits=8)  # tiny error, N_r = 64
        cache = BitKVCache(1, 1, 16, config)
        tokens = []
        for i in range(130):
            k_new = np.full((1, 1, 16), i / 130.0, dtype=np.float16)
            v_new = rng.standard_normal((1, 1, 16)).astype(np.float16)
            tokens.append(float(k_new[0, 0, 0]))
            cache.append_token(k_new, v_new)
        k_hat = cache.dequant_kv()[0][0, 0]
        assert k_hat.shape[0] == 128
        np.testing.assert_allclose(k_hat[:, 0], tokens[:128], atol=0.02)
        k_res = cache.residual_kv()[0][0, 0]
        np.testing.assert_allclose(
            k_res[:, 0].astype(np.float32), tokens[128:], atol=1e-3
        )

    def test_cache_memory_tracks_growth(self, rng):
        config = BitDecodingConfig(bits=4)
        k = rng.standard_normal((1, 2, 512, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, 512, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        before = cache.packed_nbytes
        for _ in range(config.residual_block_size):
            cache.append_token(
                rng.standard_normal((1, 2, 32)).astype(np.float16),
                rng.standard_normal((1, 2, 32)).astype(np.float16),
            )
        assert cache.packed_nbytes > before


class TestKernelConsistency:
    def test_numeric_decode_agrees_with_perf_geometry(self, rng):
        """The geometry the perf model uses must match what the cache holds."""
        config = BitDecodingConfig(bits=4)
        engine = BitDecoding(config, "a100")
        k = rng.standard_normal((2, 4, 300, 64)).astype(np.float16)
        v = rng.standard_normal((2, 4, 300, 64)).astype(np.float16)
        cache = engine.prefill(k, v)
        geom = AttentionGeometry(
            batch=cache.batch, hq=8, hkv=cache.hkv,
            seq_len=cache.seq_len, head_dim=cache.head_dim,
        )
        results = engine.decode_results(geom, res_len=cache.res_len() or None)
        assert sum(r.time_ms for r in results) > 0

    def test_quant_noise_changes_logits_not_structure(self, rng):
        """Quantized attention keeps the same argmax rows as FP16 in the
        overwhelming majority of queries (the accuracy-preservation story)."""
        config = BitDecodingConfig(bits=4)
        engine = BitDecoding(config, "a100")
        k = rng.standard_normal((1, 1, 384, 64)).astype(np.float16)
        v = rng.standard_normal((1, 1, 384, 64)).astype(np.float16)
        cache = engine.prefill(k, v)
        k_hat = cache.dequant_kv()[0][0, 0]
        q = rng.standard_normal((16, 64)).astype(np.float32)
        exact_scores = q @ k[0, 0].astype(np.float32)[: k_hat.shape[0]].T
        quant_scores = q @ k_hat.T
        agree = np.mean(
            exact_scores.argmax(axis=1) == quant_scores.argmax(axis=1)
        )
        assert agree > 0.8


class TestCrossArchitecture:
    @pytest.mark.parametrize("arch_name,version", [
        ("a100", "v2"), ("rtx4090", "v2"), ("h100", "v3"), ("rtx5090", "fp4"),
    ])
    def test_every_flagship_path_decodes(self, rng, arch_name, version):
        config = BitDecodingConfig(bits=4, version=version)
        engine = BitDecoding(config, arch_name)
        k = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        cache = engine.prefill(k, v)
        q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
        out = engine.decode(q, cache)
        ref = _reference(q, k, v)
        tol = 0.3 if version == "fp4" else 0.08
        assert np.max(np.abs(out - ref)) < tol
        # And the perf model runs for the same configuration.
        geom = AttentionGeometry(1, 8, 2, 8192, 32)
        assert engine.decode_time_ms(geom) > 0
