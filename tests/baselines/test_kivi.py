"""KIVI baseline: non-fused costs and GQA degradation."""

import math

import pytest

from repro.baselines.flash_decoding import FlashDecodingV2
from repro.baselines.kivi import Kivi
from repro.bench.figures import fig12_e2e_kivi
from repro.core.config import AttentionGeometry
from repro.model.config import LLAMA31_8B
from repro.model.memory import cache_bytes_per_token, int_format


class TestConstruction:
    def test_supported_bits(self, a100):
        assert Kivi(a100, 4).name == "KIVI-4"
        assert Kivi(a100, 2).name == "KIVI-2"
        with pytest.raises(ValueError):
            Kivi(a100, 8)


class TestCosts:
    def test_five_launches_per_step(self, a100):
        launch = Kivi(a100, 4).build_launch(AttentionGeometry(1, 32, 8, 4096, 128))
        assert launch.launches == 5

    def test_intermediate_traffic_scales_with_hq_and_seq(self, a100):
        kivi = Kivi(a100, 4)
        small = kivi.build_launch(AttentionGeometry(1, 32, 8, 4096, 128))
        large = kivi.build_launch(AttentionGeometry(1, 32, 8, 16384, 128))
        assert large.trace.gmem_write_bytes > 3 * small.trace.gmem_write_bytes

    def test_gqa_rereads_inflate_traffic(self, a100):
        kivi = Kivi(a100, 4)
        mha = kivi.build_launch(AttentionGeometry(1, 32, 32, 65536, 128))
        gqa = kivi.build_launch(AttentionGeometry(1, 32, 8, 65536, 128))
        # GQA has 4x less semantic KV data but re-reads it per query head:
        # its DRAM traffic must exceed a quarter of MHA's.
        assert gqa.trace.gmem_read_bytes > 0.4 * mha.trace.gmem_read_bytes

    def test_gqa_slower_relative_to_baseline(self, rtx4090):
        """Fig. 10: KIVI degrades severely under GQA."""
        mha = AttentionGeometry(1, 32, 32, 65536, 128)
        gqa = AttentionGeometry(1, 32, 8, 65536, 128)
        fd = FlashDecodingV2(rtx4090)
        kivi = Kivi(rtx4090, 4)
        speedup_mha = fd.decode_time_ms(mha) / kivi.decode_time_ms(mha)
        speedup_gqa = fd.decode_time_ms(gqa) / kivi.decode_time_ms(gqa)
        assert speedup_gqa < 0.6 * speedup_mha

    def test_two_bit_faster_than_four_bit(self, rtx4090):
        geom = AttentionGeometry(1, 32, 32, 65536, 128)
        assert Kivi(rtx4090, 2).decode_time_ms(geom) < Kivi(rtx4090, 4).decode_time_ms(geom)

    def test_128k_workspace_ooms_an_a100(self):
        """Fig. 12a: KIVI's non-tiled prefill workspace fits at 64K and
        runs the A100 out of memory at 128K; BitDecoding runs at both."""
        single = fig12_e2e_kivi().series
        for label in ("Single/Kivi-4", "Single/Kivi-2"):
            points = dict(single[label].points)
            assert math.isfinite(points[65536])
            assert math.isnan(points[131072])
        assert math.isfinite(dict(single["Single/BitDecoding-KC-4"].points)[131072])

    def test_cache_bytes_includes_group32_metadata(self, a100):
        """The footprint fig12 charges KIVI is its packed codes plus the
        half2 scale/zero of every group of 32 tokens."""
        model = LLAMA31_8B
        fmt = int_format(4, model, group_size=Kivi(a100, 4).group_size)
        packed = model.n_layers * 2 * model.hkv * model.head_dim * 4 / 8
        assert cache_bytes_per_token(model, fmt) > packed
        coarser = int_format(4, model, group_size=128)
        assert cache_bytes_per_token(model, fmt) > cache_bytes_per_token(model, coarser)
