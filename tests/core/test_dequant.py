"""Dequantization on the product path: the lop3 (interleaved) and static_cast
(linear) word layouts decode to the same values, and the Packing Kernel
prices each method on its own pipe."""

import numpy as np
import pytest

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing import unpack_values
from repro.core.packing_kernel import build_packing_launch
from repro.core.quantization import QuantParams, dequantize

from tests.reference_cache import pack_values


def _row_params(scale, zero, bits, n_cols):
    """One FP16 scale/zero group per row, as the cache stores them."""
    return QuantParams(
        scale=np.asarray(scale, dtype=np.float16),
        zero=np.asarray(zero, dtype=np.float16),
        axis=-1,
        group_size=n_cols,
        bits=bits,
    )


def _decode(codes, params, bits, interleaved):
    words = pack_values(codes, bits, 16, interleaved=interleaved)
    return dequantize(unpack_values(words, bits, 16, interleaved=interleaved), params)


class TestNumericalEquivalence:
    @pytest.mark.parametrize("bits", [2, 4])
    def test_lop3_matches_cast_path(self, rng, bits):
        ratio = 16 // bits
        codes = rng.integers(0, 1 << bits, size=(8, ratio * 4), dtype=np.uint8)
        params = _row_params(np.full((8, 1), 0.37), np.full((8, 1), -1.25), bits, ratio * 4)
        fast = _decode(codes, params, bits, interleaved=True)
        slow = _decode(codes, params, bits, interleaved=False)
        np.testing.assert_array_equal(fast, slow)

    def test_lop3_reconstructs_affine_map(self, rng):
        codes = rng.integers(0, 16, size=(1, 8), dtype=np.uint8)
        out = _decode(codes, _row_params([[2.0]], [[1.0]], 4, 8), 4, interleaved=True)
        expected = codes.astype(np.float32) * 2.0 + 1.0
        np.testing.assert_allclose(out, expected, rtol=1e-3)

    def test_broadcast_scales(self, rng):
        codes = rng.integers(0, 16, size=(4, 8), dtype=np.uint8)
        scale = rng.uniform(0.1, 2.0, size=(4, 1)).astype(np.float32)
        out = _decode(codes, _row_params(scale, np.zeros((4, 1)), 4, 8), 4, interleaved=True)
        assert out.shape == (4, 8)
        expected = codes.astype(np.float32) * scale
        np.testing.assert_allclose(out, expected, rtol=1e-3)


class TestInstructionMix:
    GEOM = AttentionGeometry(1, 32, 8, 8192, 128)

    def _dequant_trace(self, arch, method):
        config = BitDecodingConfig(bits=4, dequant_method=method)
        return build_packing_launch(self.GEOM, config, arch).subtraces["dequant"]

    def test_lop3_path_has_no_cvt(self, a100):
        assert self._dequant_trace(a100, "lop3").cvt_ops == 0

    def test_cvt_path_has_cvt(self, a100):
        # One cvt per dequantized K and V value.
        kv_values = self.GEOM.batch * self.GEOM.hkv * 2 * self.GEOM.seq_len * self.GEOM.head_dim
        assert self._dequant_trace(a100, "cvt").cvt_ops == kv_values
