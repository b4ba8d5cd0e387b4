"""BitKVCache + BitDecoding engine: the public API."""

import numpy as np
import pytest

from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.softmax import reference_attention


def _kv(rng, batch=1, hkv=2, seq=300, d=32):
    k = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
    return k, v


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


class TestCacheConstruction:
    def test_prefill_partitions_by_eq1(self, rng):
        config = BitDecodingConfig(bits=4)  # N_r = 128
        k, v = _kv(rng, seq=300)
        cache = BitKVCache.from_prefill(k, v, config)
        assert cache.packed_len() == 256
        assert cache.res_len() == 44
        assert cache.seq_len == 300

    def test_short_context_stays_in_residual(self, rng):
        config = BitDecodingConfig(bits=4)
        k, v = _kv(rng, seq=100)
        cache = BitKVCache.from_prefill(k, v, config)
        assert cache.packed_len() == 0
        assert cache.res_len() == 100

    def test_append_flushes_on_block_boundary(self, rng):
        config = BitDecodingConfig(bits=4)
        k, v = _kv(rng, seq=250)  # residual at 122 of 128
        cache = BitKVCache.from_prefill(k, v, config)
        flushed = []
        for i in range(10):
            k_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
            v_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
            flushed.append(cache.append_token(k_new, v_new))
        # 250 % 128 = 122 -> the 6th append (token 256) flushes.
        assert flushed == [False] * 5 + [True] + [False] * 4
        assert cache.seq_len == 260
        assert cache.packed_len() == 256

    def test_compression_approaches_bit_ratio(self, rng):
        config = BitDecodingConfig(bits=4)
        k, v = _kv(rng, seq=2048)
        cache = BitKVCache.from_prefill(k, v, config)
        # 16/4 = 4x, minus metadata and the fixed residual buffers.
        assert 2.5 < cache.compression_ratio() < 4.0

    def test_two_bit_compresses_more(self, rng):
        k, v = _kv(rng, seq=4096)
        c4 = BitKVCache.from_prefill(k, v, BitDecodingConfig(bits=4))
        c2 = BitKVCache.from_prefill(k, v, BitDecodingConfig(bits=2))
        assert c2.compression_ratio() > c4.compression_ratio()

    def test_shape_validation(self, rng):
        config = BitDecodingConfig(bits=4)
        with pytest.raises(ValueError):
            BitKVCache.from_prefill(np.zeros((2, 2, 10)), np.zeros((2, 2, 10)), config)
        cache = BitKVCache(1, 2, 32, config)
        with pytest.raises(ValueError):
            cache.append_token(np.zeros((1, 3, 32)), np.zeros((1, 3, 32)))


class TestDecodeNumerics:
    @pytest.mark.parametrize("bits,tol", [(4, 0.06), (8, 0.02)])
    def test_decode_close_to_reference(self, rng, bits, tol):
        config = BitDecodingConfig(bits=bits)
        engine = BitDecoding(config, "a100")
        k, v = _kv(rng, seq=300)
        cache = engine.prefill(k, v)
        q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
        out = engine.decode(q, cache)
        ref = _reference(q, k, v)
        assert np.max(np.abs(out - ref)) < tol

    def test_residual_only_decode_is_exact(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k, v = _kv(rng, seq=64)  # < N_r: all FP16
        cache = engine.prefill(k, v)
        q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
        out = engine.decode(q, cache)
        np.testing.assert_allclose(out, _reference(q, k, v), rtol=1e-3, atol=1e-3)

    def test_gqa_and_mha_both_supported(self, rng):
        for hkv, hq in ((2, 8), (4, 4), (1, 8)):
            engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
            k, v = _kv(rng, hkv=hkv, seq=200)
            cache = engine.prefill(k, v)
            q = rng.standard_normal((1, 1, hq, 32)).astype(np.float16)
            out = engine.decode(q, cache)
            ref = _reference(q, k, v)
            assert np.max(np.abs(out - ref)) < 0.1

    def test_decode_on_empty_cache_rejected(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        cache = BitKVCache(1, 2, 32, engine.config)
        q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
        with pytest.raises(ValueError, match="empty"):
            engine.decode(q, cache)

    def test_mismatched_query_rejected(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k, v = _kv(rng)
        cache = engine.prefill(k, v)
        with pytest.raises(ValueError):
            engine.decode(rng.standard_normal((2, 1, 8, 32)), cache)  # batch
        with pytest.raises(ValueError):
            engine.decode(rng.standard_normal((1, 1, 7, 32)), cache)  # heads

    def test_decode_after_appends_includes_new_tokens(self, rng):
        engine = BitDecoding(BitDecodingConfig(bits=4), "a100")
        k, v = _kv(rng, seq=127)
        cache = engine.prefill(k, v)
        k_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
        v_new = rng.standard_normal((1, 2, 32)).astype(np.float16)
        cache.append_token(k_new, v_new)  # flushes block 0
        q = rng.standard_normal((1, 1, 8, 32)).astype(np.float16)
        out = engine.decode(q, cache)
        k_full = np.concatenate([k, k_new[:, :, None]], axis=2)
        v_full = np.concatenate([v, v_new[:, :, None]], axis=2)
        ref = _reference(q, k_full, v_full)
        assert np.max(np.abs(out - ref)) < 0.06


class TestEngineValidation:
    def test_arch_by_name(self):
        engine = BitDecoding(BitDecodingConfig(bits=4), "rtx4090")
        assert engine.arch.name == "rtx4090"

    def test_v3_requires_hopper(self):
        with pytest.raises(ValueError):
            BitDecoding(BitDecodingConfig(version="v3"), "a100")

    def test_fp4_requires_blackwell(self):
        with pytest.raises(ValueError):
            BitDecoding(BitDecodingConfig(version="fp4"), "h100")
        BitDecoding(BitDecodingConfig(version="fp4"), "rtx5090")


class TestPerformanceApi:
    def test_decode_results_two_kernels(self, a100):
        engine = BitDecoding(BitDecodingConfig(bits=4), a100)
        geom = AttentionGeometry(1, 32, 8, 8192, 128)
        results = engine.decode_results(geom)
        names = [r.name for r in results]
        assert names == ["packing_kernel", "residual_kernel"]

    def test_short_sequence_skips_packing_kernel(self, a100):
        engine = BitDecoding(BitDecodingConfig(bits=4), a100)
        geom = AttentionGeometry(1, 32, 8, 64, 128)
        results = engine.decode_results(geom, res_len=64)
        assert [r.name for r in results] == ["residual_kernel"]

    def test_decode_time_scales_with_seq(self, a100):
        engine = BitDecoding(BitDecodingConfig(bits=4), a100)
        short = engine.decode_time_ms(AttentionGeometry(1, 32, 8, 8192, 128))
        long = engine.decode_time_ms(AttentionGeometry(1, 32, 8, 131072, 128))
        assert long > 2 * short

    def test_two_bit_faster_than_four_bit_at_long_seq(self, rtx4090):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        t4 = BitDecoding(BitDecodingConfig(bits=4), rtx4090).decode_time_ms(geom)
        t2 = BitDecoding(BitDecodingConfig(bits=2), rtx4090).decode_time_ms(geom)
        assert t2 < t4
