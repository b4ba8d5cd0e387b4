"""FP16 baselines: numerics, split heuristics, architecture paths."""

import pytest

from repro.baselines import flash_decoding
from repro.baselines.flash_decoding import FlashDecodingV2, FlashDecodingV3
from repro.core.config import AttentionGeometry
from repro.core.packing_kernel import choose_splits


class TestSplitHeuristic:
    """FlashDecoding-v2 splits the sequence by the Packing Kernel's rule."""

    def test_splits_at_small_batch(self, a100):
        fd = FlashDecodingV2(a100)
        assert choose_splits(a100, AttentionGeometry(1, 32, 8, 131072, 128), fd.tile_n) > 8

    def test_no_split_at_large_batch(self, a100):
        fd = FlashDecodingV2(a100)
        assert choose_splits(a100, AttentionGeometry(64, 32, 8, 8192, 128), fd.tile_n) == 1

    def test_launch_grid_is_one_block_per_head_and_split(self, a100):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        fd = FlashDecodingV2(a100)
        launch = fd.build_launch(geom)
        assert launch.grid_blocks == geom.batch * geom.hkv * choose_splits(a100, geom, fd.tile_n)
        assert launch.launches == 2  # the split-KV reduction


class TestPerformance:
    def test_split_helps_single_batch(self, a100, monkeypatch):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        t_split = FlashDecodingV2(a100).decode_time_ms(geom)
        # The same kernel with split-KV turned off (FlashAttention-2's decode).
        monkeypatch.setattr(flash_decoding, "choose_splits", lambda *args: 1)
        t_one = FlashDecodingV2(a100).decode_time_ms(geom)
        assert t_split < t_one

    def test_time_scales_with_seq_len(self, any_arch):
        fd = FlashDecodingV2(any_arch)
        t1 = fd.decode_time_ms(AttentionGeometry(1, 32, 8, 8192, 128))
        t2 = fd.decode_time_ms(AttentionGeometry(1, 32, 8, 65536, 128))
        assert t2 > 2 * t1

    def test_paged_slower_than_contiguous(self, a100):
        geom = AttentionGeometry(8, 32, 8, 2048, 128)
        fd = FlashDecodingV2(a100)
        assert fd.decode_time_ms(geom, paged=True) > fd.decode_time_ms(geom)

    def test_v3_requires_hopper(self, a100, h100):
        geom = AttentionGeometry(8, 32, 8, 8192, 128)
        with pytest.raises(ValueError):
            FlashDecodingV3(a100).decode_time_ms(geom)
        assert FlashDecodingV3(h100).decode_time_ms(geom) > 0

    def test_v3_beats_v2_on_hopper(self, h100):
        geom = AttentionGeometry(32, 128, 32, 32768, 128)
        t2 = FlashDecodingV2(h100).decode_time_ms(geom)
        t3 = FlashDecodingV3(h100).decode_time_ms(geom)
        assert 1.2 < t2 / t3 < 2.5  # the paper's FA3-over-FA2 band

    def test_memory_bound_at_long_context(self, a100):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        result = FlashDecodingV2(a100).decode_result(geom)
        assert result.bound_by == "dram"
