"""Bit-exactness of the vectorized SoA cache, and the dual-mode contract.

The batched struct-of-arrays refactor is only a *layout* change: every
quantization group, fragment permutation, packed word, half2 metadata
entry and online-softmax update must be bit-for-bit what the original
per-(batch, head, block) implementation produced.  The hypothesis sweep
drives random shapes through both implementations and asserts exact array
equality — not closeness — on the dequantized K/V, the residual views,
the byte accounting and the decode output.

Since the decode tile walk gained a ``fused`` numerics mode (one batched
QK^T + two-pass softmax, which changes BLAS summation order), the decode
contract is dual-mode:

- ``exact_tiled`` remains *bit-identical* to the seed per-block reference
  (the exactness sweep below pins that mode);
- ``fused`` must agree with ``exact_tiled`` within the documented
  tolerance (:data:`repro.core.packing_kernel.FUSED_NUMERICS_TOLERANCE`),
  across bits {1, 2, 4, 8}, both granularities and both FP4 formats.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import FUSED_NUMERICS_TOLERANCE

from tests.reference_cache import ReferenceBitKVCache, reference_decode

_D = 32  # multiple of every fragment-tile extent for bits in {1, 2, 4, 8}


def _arch_for(config):
    return "rtx5090" if config.version == "fp4" else "a100"


# The exactness sweep pins exact_tiled: that is the mode whose decode is
# bit-identical to the seed tile walk.  Storage (quantize/pack/flush) is
# mode-independent, so one sweep covers it for both modes.
int_configs = st.builds(
    lambda bits, granularity: BitDecodingConfig(
        bits=bits, granularity=granularity, numerics_mode="exact_tiled"
    ),
    st.sampled_from([1, 2, 4, 8]),
    st.sampled_from(["channel", "tensor"]),
)
fp4_configs = st.builds(
    lambda fmt: BitDecodingConfig(version="fp4", fp4_format=fmt, numerics_mode="exact_tiled"),
    st.sampled_from(["mxfp4", "nvfp4"]),
)
configs = st.one_of(int_configs, fp4_configs)


def _random_kv(seed, batch, hkv, seq, d):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
    return rng, k, v


def _assert_cache_identical(cache: BitKVCache, ref: ReferenceBitKVCache):
    assert cache.seq_len == ref.seq_len
    assert cache.packed_len() == ref.packed_len()
    assert cache.res_len() == ref.res_len()
    assert cache.packed_nbytes == ref.packed_nbytes
    assert cache.meta_nbytes == ref.meta_nbytes
    assert cache.residual_nbytes == ref.residual_nbytes
    k_hat, v_hat = cache.dequant_kv()
    k_res, v_res = cache.residual_kv()
    for b in range(cache.batch):
        for h in range(cache.hkv):
            k_ref, v_ref = ref.dequantized_packed(b, h)
            assert np.array_equal(k_hat[b, h], k_ref)
            assert np.array_equal(v_hat[b, h], v_ref)
            kr_ref, vr_ref = ref.residual_view(b, h)
            assert np.array_equal(k_res[b, h], kr_ref)
            assert np.array_equal(v_res[b, h], vr_ref)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config=configs,
    batch=st.integers(1, 2),
    hkv=st.integers(1, 2),
    gq=st.integers(1, 2),
    seq_frac=st.floats(0.05, 2.3),
    seed=st.integers(0, 2**31 - 1),
)
def test_vectorized_cache_bit_exact_vs_reference(config, batch, hkv, gq, seq_frac, seed):
    nr = config.residual_block_size
    seq = max(1, int(nr * seq_frac))
    rng, k, v = _random_kv(seed, batch, hkv, seq, _D)

    cache = BitKVCache.from_prefill(k, v, config)
    ref = ReferenceBitKVCache.from_prefill(k, v, config)
    _assert_cache_identical(cache, ref)

    engine = BitDecoding(config, _arch_for(config))
    q = rng.standard_normal((batch, 1, hkv * gq, _D)).astype(np.float16)
    out = engine.decode(q, cache)
    out_ref = reference_decode(config, q, ref)
    assert np.array_equal(out, out_ref)

    # Cross one flush boundary (plus one token) and re-check everything.
    n_appends = (nr - cache.res_len()) + 1
    for _ in range(n_appends):
        k_new = rng.standard_normal((batch, hkv, _D)).astype(np.float16)
        v_new = rng.standard_normal((batch, hkv, _D)).astype(np.float16)
        assert cache.append_token(k_new, v_new) == ref.append_token(k_new, v_new)
    _assert_cache_identical(cache, ref)

    q2 = rng.standard_normal((batch, 1, hkv * gq, _D)).astype(np.float16)
    assert np.array_equal(engine.decode(q2, cache), reference_decode(config, q2, ref))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config=configs,
    batch=st.integers(1, 2),
    hkv=st.integers(1, 2),
    gq=st.integers(1, 2),
    n_blocks=st.floats(1.0, 3.5),
    q_scale=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**31 - 1),
)
@example(
    # MXFP4 case that measured 9.2e-2 while fused FP4 quantized P against
    # the global row maximum.
    config=BitDecodingConfig(version="fp4", fp4_format="mxfp4", numerics_mode="exact_tiled"),
    batch=2,
    hkv=2,
    gq=2,
    n_blocks=2.5625,
    q_scale=1.75,
    seed=129953,
)
@example(
    # MXFP4 case that measured 0.127, past the old 1.25e-1 FP4 bound, under
    # that same global-maximum quantization; 6e-8 with the running maximum.
    config=BitDecodingConfig(version="fp4", fp4_format="mxfp4", numerics_mode="exact_tiled"),
    batch=2,
    hkv=2,
    gq=2,
    n_blocks=2.2890625,
    q_scale=2.3125,
    seed=2,
)
def test_fused_mode_within_documented_tolerance(
    config, batch, hkv, gq, n_blocks, q_scale, seed
):
    """Dual-mode contract, fused half: for every bit width, granularity and
    FP4 format, ``fused`` decode agrees with ``exact_tiled`` within
    :data:`FUSED_NUMERICS_TOLERANCE` (relative to the tiled output)."""
    seq = int(config.residual_block_size * n_blocks)  # >= 1 packed block
    rng, k, v = _random_kv(seed, batch, hkv, seq, _D)
    q = (rng.standard_normal((batch, 1, hkv * gq, _D)) * q_scale).astype(np.float16)

    tiled_config = config.with_overrides(numerics_mode="exact_tiled")
    fused_config = config.with_overrides(numerics_mode="fused")
    out_tiled = BitDecoding(tiled_config, _arch_for(config)).decode(
        q, BitKVCache.from_prefill(k, v, tiled_config)
    )
    out_fused = BitDecoding(fused_config, _arch_for(config)).decode(
        q, BitKVCache.from_prefill(k, v, fused_config)
    )
    tol = FUSED_NUMERICS_TOLERANCE["fp4" if config.version == "fp4" else "int"]
    err = np.max(np.abs(out_fused - out_tiled)) / max(1.0, np.max(np.abs(out_tiled)))
    assert err <= tol


def test_exact_tiled_decode_bit_identical_to_reference(rng):
    """Dual-mode contract, exact half (the hypothesis sweep above covers
    the full config grid; this pins one deterministic case as a fast,
    non-property regression check)."""
    config = BitDecodingConfig(bits=4, numerics_mode="exact_tiled")
    k = rng.standard_normal((2, 2, 300, _D)).astype(np.float16)
    v = rng.standard_normal((2, 2, 300, _D)).astype(np.float16)
    q = rng.standard_normal((2, 1, 4, _D)).astype(np.float16)
    cache = BitKVCache.from_prefill(k, v, config)
    ref = ReferenceBitKVCache.from_prefill(k, v, config)
    out = BitDecoding(config, "a100").decode(q, cache)
    assert np.array_equal(out, reference_decode(config, q, ref))


class TestDequantMemoization:
    """Satellite fix: decode must stop re-dequantizing unchanged blocks."""

    def test_dequant_cached_between_flushes(self, rng):
        config = BitDecodingConfig(bits=4)
        k = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        k1, v1 = cache.dequant_kv()
        k2, v2 = cache.dequant_kv()
        assert k1 is k2 and v1 is v2  # memo hit, no rebuild

    def test_non_flushing_append_keeps_memo(self, rng):
        config = BitDecodingConfig(bits=4)
        k = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, 256, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        k1, _ = cache.dequant_kv()
        flushed = cache.append_token(
            rng.standard_normal((1, 2, 32)).astype(np.float16),
            rng.standard_normal((1, 2, 32)).astype(np.float16),
        )
        assert not flushed
        k2, _ = cache.dequant_kv()
        assert k1 is k2  # the packed part did not change

    def test_flush_extends_warm_memo_exactly(self, rng):
        """A flush with a warm memo appends just the new blocks' dequant;
        the result must be bit-identical to a cold full rebuild."""
        config = BitDecodingConfig(bits=4)
        nr = config.residual_block_size
        k = rng.standard_normal((2, 2, nr * 2, 32)).astype(np.float16)
        v = rng.standard_normal((2, 2, nr * 2, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        cache.dequant_kv()  # warm the memo
        for _ in range(nr):
            cache.append_token(
                rng.standard_normal((2, 2, 32)).astype(np.float16),
                rng.standard_normal((2, 2, 32)).astype(np.float16),
            )
        assert cache._dequant_memo is not None  # extended in place, not dropped
        k_inc, v_inc = cache.dequant_kv()
        cache._dequant_memo = None
        k_full, v_full = cache.dequant_kv()
        assert np.array_equal(k_inc, k_full)
        assert np.array_equal(v_inc, v_full)

    def test_flush_invalidates_memo(self, rng):
        config = BitDecodingConfig(bits=4)
        nr = config.residual_block_size
        k = rng.standard_normal((1, 2, nr, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, nr, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        k1, _ = cache.dequant_kv()
        for _ in range(nr):  # fill and flush a second block
            cache.append_token(
                rng.standard_normal((1, 2, 32)).astype(np.float16),
                rng.standard_normal((1, 2, 32)).astype(np.float16),
            )
        k2, _ = cache.dequant_kv()
        assert k2 is not k1
        assert k2.shape[-2] == 2 * nr

    def test_byte_properties_are_shape_derived(self, rng):
        """O(1) accounting: the properties come from array shapes, not a
        walk over per-block Python objects."""
        config = BitDecodingConfig(bits=4)
        k = rng.standard_normal((2, 4, 640, 32)).astype(np.float16)
        v = rng.standard_normal((2, 4, 640, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        packed = cache.packed
        assert cache.packed_nbytes == packed.k_words.nbytes + packed.v_words.nbytes
        assert cache.meta_nbytes == packed.k_params.nbytes + packed.v_params.nbytes
        assert cache.residual_nbytes == 2 * (cache.residual.k.size + cache.residual.v.size)


class TestEmptyAndErrorPaths:
    def test_empty_cache_has_zero_bytes_and_rejects_decode(self, rng):
        config = BitDecodingConfig(bits=4)
        cache = BitKVCache(1, 2, 32, config)
        assert cache.packed_nbytes == 0
        assert cache.meta_nbytes == 0
        assert cache.packed_len() == 0
        engine = BitDecoding(config, "a100")
        q = rng.standard_normal((1, 1, 4, 32)).astype(np.float16)
        with pytest.raises(ValueError, match="empty"):
            engine.decode(q, cache)

    def test_residual_only_cache_has_empty_packed_views(self, rng):
        config = BitDecodingConfig(bits=4)
        k = rng.standard_normal((1, 2, 17, 32)).astype(np.float16)
        v = rng.standard_normal((1, 2, 17, 32)).astype(np.float16)
        cache = BitKVCache.from_prefill(k, v, config)
        k_hat, v_hat = cache.dequant_kv()
        assert k_hat.shape == (1, 2, 0, 32) and v_hat.shape == (1, 2, 0, 32)
