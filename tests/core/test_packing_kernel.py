"""Packing Kernel: numerics, split heuristics, trace/ablation behaviour."""

import numpy as np
import pytest

from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import (
    build_packing_launch,
    choose_splits,
    run_numeric,
    split_states,
)
from repro.core.softmax import reference_attention
from repro.gpu.kernel import simulate_kernel


class TestNumerics:
    def test_matches_reference_attention(self, rng):
        config = BitDecodingConfig(bits=4)
        q = rng.standard_normal((4, 32)).astype(np.float32)
        k = rng.standard_normal((300, 32)).astype(np.float32)
        v = rng.standard_normal((300, 32)).astype(np.float32)
        out = run_numeric(q, k, v, config).finalize()
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-4, atol=1e-5)

    def test_split_states_merge_to_reference(self, rng):
        config = BitDecodingConfig(bits=4)
        q = rng.standard_normal((2, 16)).astype(np.float32)
        k = rng.standard_normal((500, 16)).astype(np.float32)
        v = rng.standard_normal((500, 16)).astype(np.float32)
        states = split_states(q, k, v, config, n_splits=7)
        merged = states[0]
        for st in states[1:]:
            merged.merge(st)
        np.testing.assert_allclose(
            merged.finalize(), reference_attention(q, k, v), rtol=1e-4, atol=1e-5
        )

    def test_broken_coop_softmax_is_wrong(self, rng):
        config = BitDecodingConfig(bits=4, use_coop_softmax=False)
        q = (rng.standard_normal((4, 32)) * 4).astype(np.float32)
        k = rng.standard_normal((256, 32)).astype(np.float32)
        v = rng.standard_normal((256, 32)).astype(np.float32)
        out = run_numeric(q, k, v, config).finalize()
        ref = reference_attention(q, k, v)
        assert not np.allclose(out, ref, atol=1e-3)

    def test_fp4_path_close_but_not_exact(self, rng):
        config = BitDecodingConfig(version="fp4")
        q = rng.standard_normal((4, 32)).astype(np.float32)
        k = rng.standard_normal((128, 32)).astype(np.float32)
        v = rng.standard_normal((128, 32)).astype(np.float32)
        out = run_numeric(q, k, v, config).finalize()
        ref = reference_attention(q, k, v)
        # P re-quantization introduces visible but bounded error.
        assert np.max(np.abs(out - ref)) < 0.35
        cos = float(out.ravel() @ ref.ravel()) / (
            np.linalg.norm(out) * np.linalg.norm(ref)
        )
        assert cos > 0.98


class TestSplitHeuristic:
    def test_small_batch_splits(self, a100):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        assert choose_splits(a100, geom, 128) > 4

    def test_large_batch_does_not_split(self, a100):
        geom = AttentionGeometry(128, 32, 8, 8192, 128)
        assert choose_splits(a100, geom, 128) == 1

    def test_splits_never_exceed_tiles(self, a100):
        geom = AttentionGeometry(1, 32, 1, 256, 128)
        assert choose_splits(a100, geom, 128) <= 2


class TestTraceBuilder:
    def test_quantized_traffic_below_fp16(self, a100):
        geom = AttentionGeometry(1, 32, 8, 65536, 128)
        launch = build_packing_launch(geom, BitDecodingConfig(bits=4), a100)
        assert launch.trace.gmem_read_bytes < geom.kv_bytes_fp16 / 3.0

    def test_two_bit_reads_half_of_four_bit(self, a100):
        geom = AttentionGeometry(1, 32, 8, 65536, 128)
        r4 = build_packing_launch(geom, BitDecodingConfig(bits=4), a100)
        r2 = build_packing_launch(geom, BitDecodingConfig(bits=2), a100)
        # Not exactly half because metadata is shared, but well below.
        assert r2.trace.gmem_read_bytes < 0.7 * r4.trace.gmem_read_bytes

    def test_dequant_subtrace_present_for_int(self, a100):
        geom = AttentionGeometry(1, 32, 8, 8192, 128)
        launch = build_packing_launch(geom, BitDecodingConfig(bits=4), a100)
        assert "dequant" in launch.subtraces
        assert "softmax" in launch.subtraces

    def test_fp4_path_has_requant_not_dequant(self, rtx5090):
        geom = AttentionGeometry(1, 32, 8, 8192, 128)
        launch = build_packing_launch(geom, BitDecodingConfig(version="fp4"), rtx5090)
        assert "p_requant" in launch.subtraces
        assert "dequant" not in launch.subtraces
        assert "fp4" in launch.trace.tc_flops

    def test_v3_stages_dequantized_tiles_through_smem(self, h100):
        """wgmma sources operand B from shared memory, so v3 stores the
        dequantized FP16 K/V back to SMEM (STSM); v2 feeds B from registers."""
        geom = AttentionGeometry(1, 32, 8, 8192, 128)
        v2 = build_packing_launch(geom, BitDecodingConfig(bits=4, version="v2"), h100)
        v3 = build_packing_launch(geom, BitDecodingConfig(bits=4, version="v3"), h100)
        kv_values = geom.batch * geom.hkv * 2 * geom.seq_len * geom.head_dim
        assert v3.trace.smem_bytes - v2.trace.smem_bytes == pytest.approx(2 * kv_values * 2)

    def test_v3_smem_holds_one_fp16_kv_tile_pair(self, h100):
        geom = AttentionGeometry(1, 32, 8, 8192, 128)
        v2 = build_packing_launch(geom, BitDecodingConfig(bits=4, version="v2"), h100)
        v3 = build_packing_launch(geom, BitDecodingConfig(bits=4, version="v3"), h100)
        # K + V tiles of tile_n (128) x head_dim (128) FP16.
        assert v3.smem_per_block_bytes - v2.smem_per_block_bytes == 2 * 128 * 128 * 2

    def test_paged_adds_table_reads_and_stride(self, a100):
        geom = AttentionGeometry(8, 32, 8, 2048, 128)
        config = BitDecodingConfig(bits=4)
        flat = build_packing_launch(geom, config, a100, paged=False)
        paged = build_packing_launch(geom, config, a100, paged=True)
        assert paged.trace.gmem_read_bytes > flat.trace.gmem_read_bytes
        assert (
            paged.trace.gmem_read_bytes_effective
            > flat.trace.gmem_read_bytes_effective
        )

    def test_split_adds_partial_traffic_and_launch(self, a100):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        config = BitDecodingConfig(bits=4)
        split = build_packing_launch(geom, config, a100)
        nosplit = build_packing_launch(geom, config, a100, n_splits=1)
        assert split.launches == 2
        assert nosplit.launches == 1
        assert split.trace.gmem_write_bytes > nosplit.trace.gmem_write_bytes


class TestAblations:
    """The Fig. 16 knobs must each cost performance when disabled."""

    @pytest.fixture
    def geom(self):
        return AttentionGeometry(8, 32, 8, 8192, 128)

    def test_no_layout_induction_slower(self, a100, geom):
        full = BitDecodingConfig(bits=4)
        no_layout = full.with_overrides(use_layout_induction=False)
        t_full = simulate_kernel(a100, build_packing_launch(geom, full, a100)).time_s
        t_ablate = simulate_kernel(a100, build_packing_launch(geom, no_layout, a100)).time_s
        assert t_ablate > 1.2 * t_full

    def test_no_warp_parallel_slower(self, a100, geom):
        full = BitDecodingConfig(bits=4)
        ablated = full.with_overrides(use_warp_parallel=False)
        t_full = simulate_kernel(a100, build_packing_launch(geom, full, a100)).time_s
        t_ablate = simulate_kernel(a100, build_packing_launch(geom, ablated, a100)).time_s
        assert t_ablate > t_full

    def test_no_pipeline_slower(self, a100, geom):
        full = BitDecodingConfig(bits=4)
        ablated = full.with_overrides(use_pipeline=False)
        t_full = simulate_kernel(a100, build_packing_launch(geom, full, a100)).time_s
        t_ablate = simulate_kernel(a100, build_packing_launch(geom, ablated, a100)).time_s
        assert t_ablate > t_full

    def test_v3_beats_v2_on_hopper(self, h100, geom):
        v2 = BitDecodingConfig(bits=4, version="v2")
        v3 = BitDecodingConfig(bits=4, version="v3")
        t2 = simulate_kernel(h100, build_packing_launch(geom, v2, h100)).time_s
        t3 = simulate_kernel(h100, build_packing_launch(geom, v3, h100)).time_s
        assert t3 < t2

    def test_cvt_dequant_slower_than_lop3(self, a100, geom):
        lop3 = BitDecodingConfig(bits=4, dequant_method="lop3")
        cvt = BitDecodingConfig(bits=4, dequant_method="cvt")
        t_fast = simulate_kernel(a100, build_packing_launch(geom, lop3, a100)).time_s
        t_slow = simulate_kernel(a100, build_packing_launch(geom, cvt, a100)).time_s
        assert t_slow >= t_fast
