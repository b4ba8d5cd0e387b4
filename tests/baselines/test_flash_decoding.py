"""FP16 baselines: numerics, split heuristics, architecture paths."""

import pytest

from repro.baselines.flash_decoding import FlashDecodingV2, FlashDecodingV3
from repro.core.config import AttentionGeometry


class _OneSplit(FlashDecodingV2):
    """The same kernel with split-KV turned off (FlashAttention-2's decode)."""

    def n_splits(self, geom: AttentionGeometry) -> int:
        return 1


class TestSplitHeuristic:
    def test_splits_at_small_batch(self, a100):
        fd = FlashDecodingV2(a100)
        assert fd.n_splits(AttentionGeometry(1, 32, 8, 131072, 128)) > 8

    def test_no_split_at_large_batch(self, a100):
        fd = FlashDecodingV2(a100)
        assert fd.n_splits(AttentionGeometry(64, 32, 8, 8192, 128)) == 1


class TestPerformance:
    def test_split_helps_single_batch(self, a100):
        geom = AttentionGeometry(1, 32, 8, 131072, 128)
        t_split = FlashDecodingV2(a100).decode_time_ms(geom)
        t_one = _OneSplit(a100).decode_time_ms(geom)
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
