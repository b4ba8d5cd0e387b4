"""Residual Kernel: flush numerics, layout coordination, trace builders."""

import numpy as np
import pytest

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.residual_kernel import (
    attend_residual,
    build_prefill_quant_launch,
    build_residual_launch,
)
from repro.core.softmax import reference_attention
from repro.gpu.kernel import simulate_kernel

from tests.reference_cache import Fp4Block, PackedBlock, flush_block


def _block(rng, config, n=None, d=32):
    n = n or config.residual_block_size
    k = rng.standard_normal((n, d)).astype(np.float16)
    v = rng.standard_normal((n, d)).astype(np.float16)
    return k, v


class TestFlushNumerics:
    @pytest.mark.parametrize("bits,granularity", [(4, "channel"), (4, "tensor"), (2, "channel"), (8, "channel")])
    def test_flush_dequant_round_trip_error(self, rng, bits, granularity):
        config = BitDecodingConfig(bits=bits, granularity=granularity)
        k, v = _block(rng, config)
        block = flush_block(k, v, config)
        k_hat, v_hat = block.dequant_kv(config)
        # Reconstruction error bounded by the quantization step.
        step_k = float(np.max(block.k_params.scale))
        step_v = float(np.max(block.v_params.scale))
        assert np.max(np.abs(k_hat - k.astype(np.float32))) <= step_k / 2 + 1e-2
        assert np.max(np.abs(v_hat - v.astype(np.float32))) <= step_v / 2 + 1e-2

    def test_flush_stores_real_packed_words(self, rng):
        config = BitDecodingConfig(bits=4)
        k, v = _block(rng, config)
        block = flush_block(k, v, config)
        assert isinstance(block, PackedBlock)
        assert block.k_words.dtype == np.uint16
        assert block.meta_nbytes > 0

    def test_packed_bytes_are_quarter_of_fp16_for_int4(self, rng):
        config = BitDecodingConfig(bits=4)
        k, v = _block(rng, config)
        block = flush_block(k, v, config)
        assert block.packed_nbytes * 4 == (k.nbytes + v.nbytes)

    def test_layout_mismatch_detected(self, rng):
        """Sec. IV-A(4): store and load must share the instruction config."""
        config4 = BitDecodingConfig(bits=4)
        config2 = BitDecodingConfig(bits=2)
        k, v = _block(rng, config4)
        block = flush_block(k, v, config4)
        with pytest.raises(ValueError, match="instruction configuration"):
            block.dequant_kv(config2)

    def test_fp4_flush(self, rng):
        config = BitDecodingConfig(version="fp4")
        k, v = _block(rng, config)
        block = flush_block(k, v, config)
        assert isinstance(block, Fp4Block)
        k_hat, _ = block.dequant_kv(config)
        # fp4 reconstruction error is bounded relative to the block max.
        assert np.max(np.abs(k_hat - k.astype(np.float32))) <= np.abs(k).max() * 0.6

    @pytest.mark.parametrize("fmt,bits", [("mxfp4", 4.25), ("nvfp4", 4.5)])
    def test_fp4_storage_bits_per_value(self, rng, fmt, bits):
        """4-bit E2M1 codes plus one 8-bit scale per 32 (MX) / 16 (NV) values."""
        config = BitDecodingConfig(version="fp4", fp4_format=fmt)
        k, v = _block(rng, config)
        block = flush_block(k, v, config)
        n_values = 2 * block.length * block.head_dim
        assert (block.packed_nbytes + block.meta_nbytes) * 8 / n_values == bits

    def test_shape_mismatch_rejected(self, rng):
        config = BitDecodingConfig(bits=4)
        k, _ = _block(rng, config)
        with pytest.raises(ValueError, match="shape"):
            flush_block(k, k[:64], config)


class TestAttendResidual:
    def test_matches_reference(self, rng):
        config = BitDecodingConfig(bits=4)
        q = rng.standard_normal((4, 32)).astype(np.float32)
        k, v = _block(rng, config, n=100)
        state = attend_residual(q, k, v, config)
        out = state.finalize()
        ref = reference_attention(q, k.astype(np.float32), v.astype(np.float32))
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_empty_residual_returns_fresh_state(self, rng):
        config = BitDecodingConfig(bits=4)
        q = rng.standard_normal((4, 32)).astype(np.float32)
        state = attend_residual(q, np.zeros((0, 32)), np.zeros((0, 32)), config)
        assert np.all(state.l == 0)


class TestTraceBuilders:
    def test_residual_launch_flush_adds_work(self, a100):
        geom = AttentionGeometry(2, 32, 8, 4096, 128)
        config = BitDecodingConfig(bits=4)
        plain = simulate_kernel(a100, build_residual_launch(geom, config, a100))
        flush = simulate_kernel(
            a100, build_residual_launch(geom, config, a100, flush=True)
        )
        assert flush.time_s > plain.time_s
        assert "quant_pack" in flush.subtrace_times

    def test_residual_launch_res_len_bounds(self, a100):
        geom = AttentionGeometry(1, 32, 8, 4096, 128)
        config = BitDecodingConfig(bits=4)
        with pytest.raises(ValueError):
            build_residual_launch(geom, config, a100, res_len=0)
        with pytest.raises(ValueError):
            build_residual_launch(geom, config, a100, res_len=129)

    def test_residual_cost_independent_of_seq_len(self, a100):
        """The residual kernel touches only N_r rows, not the whole cache."""
        config = BitDecodingConfig(bits=4)
        short = AttentionGeometry(1, 32, 8, 4096, 128)
        long = AttentionGeometry(1, 32, 8, 131072, 128)
        t_short = simulate_kernel(a100, build_residual_launch(short, config, a100)).time_s
        t_long = simulate_kernel(a100, build_residual_launch(long, config, a100)).time_s
        assert t_long == pytest.approx(t_short, rel=0.01)

    def test_prefill_quant_launch_scales_with_context(self, a100):
        config = BitDecodingConfig(bits=4)
        small = AttentionGeometry(1, 32, 8, 8192, 128)
        large = AttentionGeometry(1, 32, 8, 131072, 128)
        t_small = simulate_kernel(a100, build_prefill_quant_launch(small, config, a100)).time_s
        t_large = simulate_kernel(a100, build_prefill_quant_launch(large, config, a100)).time_s
        assert t_large > 4 * t_small
