"""Quantization: error bounds, granularities, fp4 formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantization import (
    E2M1_VALUES,
    QuantScheme,
    dequantize,
    quantize,
    quantize_fp4,
    quantize_key,
    quantize_value,
)


class TestQuantScheme:
    def test_short_names(self):
        assert QuantScheme(4, "channel", 64).short_name == "KC-4"
        assert QuantScheme(2, "tensor", 128).short_name == "KT-2"

    def test_levels(self):
        assert QuantScheme(4, "channel", 64).levels == 16
        assert QuantScheme(2, "channel", 64).levels == 4

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantScheme(3, "channel", 64)

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            QuantScheme(4, "rowwise", 64)


class TestIntegerQuantization:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_codes_in_range(self, rng, bits):
        x = rng.standard_normal((64, 32)).astype(np.float32)
        codes, params = quantize(x, bits, axis=0, group_size=32)
        assert codes.dtype == np.uint8
        assert codes.max() < (1 << bits)
        assert params.bits == bits

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_reconstruction_error_bounded(self, rng, bits):
        x = rng.standard_normal((64, 32)).astype(np.float32)
        codes, params = quantize(x, bits, axis=0, group_size=32)
        x_hat = dequantize(codes, params)
        # Half a step per group, plus slack for the fp16 metadata.
        bound = float(np.max(params.scale)) / 2.0 + 1e-3
        assert np.max(np.abs(x_hat - x)) <= bound

    def test_higher_bits_lower_error(self, rng):
        x = rng.standard_normal((128, 64)).astype(np.float32)
        errs = {}
        for bits in (2, 4, 8):
            codes, params = quantize(x, bits, axis=0, group_size=64)
            errs[bits] = np.abs(dequantize(codes, params) - x).mean()
        assert errs[8] < errs[4] < errs[2]

    def test_constant_group_is_exact(self):
        x = np.full((32, 8), 2.5, dtype=np.float32)
        codes, params = quantize(x, 4, axis=0, group_size=32)
        np.testing.assert_allclose(dequantize(codes, params), x, atol=2e-3)

    def test_group_extrema_representable(self, rng):
        """Asymmetric quantization must hit both group endpoints."""
        x = rng.uniform(-3, 5, size=(64, 4)).astype(np.float32)
        codes, params = quantize(x, 4, axis=0, group_size=64)
        x_hat = dequantize(codes, params)
        # fp16 metadata introduces slack; endpoints within one step.
        step = params.scale.max()
        assert abs(x_hat.min() - x.min()) <= step
        assert abs(x_hat.max() - x.max()) <= step

    def test_misaligned_group_rejected(self, rng):
        x = rng.standard_normal((60, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="group"):
            quantize(x, 4, axis=0, group_size=64)

    def test_metadata_stored_as_half2(self, rng):
        x = rng.standard_normal((64, 8)).astype(np.float32)
        _, params = quantize(x, 4, axis=0, group_size=32)
        # scale/zero survive an fp16 round trip unchanged (already rounded).
        np.testing.assert_array_equal(
            params.scale, params.scale.astype(np.float16).astype(np.float32)
        )
        assert params.nbytes == params.scale.size * 2 + params.zero.size * 2


class TestGranularities:
    def test_channel_wise_groups_along_seq(self, rng):
        k = rng.standard_normal((128, 64)).astype(np.float32)  # (seq, d)
        scheme = QuantScheme(4, "channel", 64)
        codes, params = quantize_key(k, scheme, seq_axis=0, channel_axis=1)
        # one (scale, zero) per channel per 64-token group.
        assert params.scale.shape == (64, 2)

    def test_tensor_wise_groups_along_channels(self, rng):
        k = rng.standard_normal((128, 64)).astype(np.float32)
        scheme = QuantScheme(4, "tensor", 64)
        codes, params = quantize_key(k, scheme, seq_axis=0, channel_axis=1)
        # one (scale, zero) per token per 64-channel group.
        assert params.scale.shape == (128, 1)

    def test_channel_outliers_hurt_tensor_wise_more(self, rng):
        """The reason KC exists: per-channel outliers (KIVI Sec. 1)."""
        k = rng.standard_normal((128, 64)).astype(np.float32)
        k[:, 7] *= 30.0  # one outlier channel
        kc_codes, kc_params = quantize_key(k, QuantScheme(2, "channel", 64), 0, 1)
        kt_codes, kt_params = quantize_key(k, QuantScheme(2, "tensor", 64), 0, 1)
        kc_err = np.abs(dequantize(kc_codes, kc_params) - k)[:, :7].mean()
        kt_err = np.abs(dequantize(kt_codes, kt_params) - k)[:, :7].mean()
        assert kc_err < kt_err

    def test_value_quantization_is_per_token(self, rng):
        v = rng.standard_normal((128, 64)).astype(np.float32)
        codes, params = quantize_value(v, 4, group_size=64, channel_axis=1)
        assert params.scale.shape == (128, 1)


class TestFp4:
    def test_e2m1_value_set(self):
        assert list(E2M1_VALUES) == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]

    @pytest.mark.parametrize("fmt,block", [("mxfp4", 32), ("nvfp4", 16)])
    def test_block_sizes(self, rng, fmt, block):
        x = rng.standard_normal((4, 128)).astype(np.float32)
        _, params = quantize_fp4(x, fmt)
        assert params.block_size == block
        assert params.scale.shape == (4, 128 // block)

    def test_outputs_are_representable(self, rng):
        x = rng.standard_normal((2, 64)).astype(np.float32)
        q, params = quantize_fp4(x, "mxfp4")
        scaled = q.reshape(2, 2, 32) / params.scale[..., None]
        for val in np.abs(scaled).ravel():
            assert np.min(np.abs(E2M1_VALUES - val)) < 1e-5

    def test_mxfp4_scales_are_powers_of_two(self, rng):
        x = rng.standard_normal((2, 64)).astype(np.float32) * 7
        _, params = quantize_fp4(x, "mxfp4")
        log2 = np.log2(params.scale)
        np.testing.assert_allclose(log2, np.round(log2), atol=1e-6)

    def test_relative_error_bounded(self, rng):
        x = rng.standard_normal((8, 128)).astype(np.float32)
        q, _ = quantize_fp4(x, "mxfp4")
        # E2M1's worst-case relative spacing is 0.5/1.5 on top of the block
        # scale rounding (another up-to-2x); modest absolute check instead.
        amax = np.abs(x).max()
        assert np.max(np.abs(q - x)) <= amax * 0.6

    def test_nvfp4_tighter_than_mxfp4(self, rng):
        """Finer blocks + non-power-of-two scales -> lower error."""
        x = rng.standard_normal((16, 128)).astype(np.float32)
        q_mx, _ = quantize_fp4(x, "mxfp4")
        q_nv, _ = quantize_fp4(x, "nvfp4")
        assert np.abs(q_nv - x).mean() <= np.abs(q_mx - x).mean()

    def test_unknown_format_rejected(self, rng):
        with pytest.raises(ValueError):
            quantize_fp4(np.zeros((1, 32), np.float32), "fp4e3m0")

    def test_misaligned_block_rejected(self, rng):
        with pytest.raises(ValueError):
            quantize_fp4(np.zeros((1, 40), np.float32), "mxfp4")


class TestProperties:
    @given(
        bits=st.sampled_from([2, 4, 8]),
        groups=st.integers(1, 4),
        scale=st.floats(0.1, 100),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bound_property(self, bits, groups, scale, seed):
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((32 * groups, 4)) * scale).astype(np.float32)
        codes, params = quantize(x, bits, axis=0, group_size=32)
        x_hat = dequantize(codes, params)
        # Bound: half a quantization step plus fp16 metadata rounding.
        bound = params.scale.max() / 2 + np.abs(x).max() * 2e-3 + 1e-3
        assert np.max(np.abs(x_hat - x)) <= bound

    @given(seed=st.integers(0, 2 ** 31), shift=st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_quantization_shift_covariance(self, seed, shift):
        """Asymmetric quantization tracks additive shifts (zero-point)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        codes_a, _ = quantize(x, 4, axis=0, group_size=32)
        codes_b, _ = quantize(x + shift, 4, axis=0, group_size=32)
        # Codes are identical up to fp16 rounding of the shifted metadata.
        assert np.mean(codes_a != codes_b) < 0.35
