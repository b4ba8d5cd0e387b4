"""Shared baseline cost helpers: L2 reuse, GQA re-reads, metadata, FLOPs."""

import pytest

from repro.baselines.common import (
    L2_HIT_CAP,
    attention_gflops,
    gqa_reread_traffic,
    int_kv_metadata_bytes,
    l2_hit_fraction,
)
from repro.core.config import AttentionGeometry
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format

MB = 1024 * 1024


class TestL2HitFraction:
    def test_cache_resident_stream_hits_at_the_cap(self, a100):
        assert l2_hit_fraction(a100, 1.0 * MB) == L2_HIT_CAP
        assert l2_hit_fraction(a100, 0.0) == L2_HIT_CAP

    def test_hits_decay_with_stream_beyond_l2(self, a100):
        l2 = a100.l2_size_mb * MB
        assert l2_hit_fraction(a100, 4 * l2) == pytest.approx(0.25)
        rates = [l2_hit_fraction(a100, k * l2) for k in (1, 2, 4, 8, 16)]
        assert rates == sorted(rates, reverse=True)


class TestGqaRereadTraffic:
    def test_mha_streams_the_cache_once(self, a100):
        geom = AttentionGeometry(1, 32, 32, 4096, 128)
        assert gqa_reread_traffic(a100, geom, 1e9) == (1e9, 0.0)

    def test_repeats_split_between_dram_and_l2(self, a100):
        """A group of ``g_q`` query heads reads its KV head ``g_q`` times;
        every repeat is served by L2 or DRAM, and the first read by DRAM."""
        geom = AttentionGeometry(1, 32, 8, 4096, 128)
        kv = 1.0 * MB
        dram, l2 = gqa_reread_traffic(a100, geom, kv)
        assert dram + l2 == pytest.approx(geom.gq * kv)
        assert l2 == pytest.approx((geom.gq - 1) * kv * L2_HIT_CAP)
        assert dram >= kv


class TestMetadataAndFlops:
    def test_metadata_counts_key_groups_and_value_tokens(self):
        """One half2 per key channel per group of tokens, one per value token."""
        geom = AttentionGeometry(2, 32, 8, 4096, 128)
        heads = geom.batch * geom.hkv
        meta = int_kv_metadata_bytes(geom, 64)
        assert meta == heads * 128 * (4096 / 64) * 4.0 + heads * 4096 * 4.0
        key_part = meta - int_kv_metadata_bytes(geom, 128)
        assert key_part == pytest.approx(heads * 128 * (4096 / 128) * 4.0)

    def test_metadata_is_the_capacity_models_bytes_per_token(self):
        """The launches read what ``int_format`` charges per cached token."""
        model = LLAMA31_8B
        geom = AttentionGeometry(4, model.hq, model.hkv, 1000, model.head_dim)
        for group in (32, 64, 128):
            per_token = int_format(4, model, group_size=group).meta_bytes_per_token_layer
            assert int_kv_metadata_bytes(geom, group) == 4 * 1000 * per_token

    def test_attention_flops_scale_with_rows_and_context(self):
        """QK^T and PV each cost ``2 * rows * seq * d`` per KV head."""
        geom = AttentionGeometry(1, 2, 2, 100, 16)
        assert attention_gflops(geom, 1) == 2 * 100 * 16 * 2 * 2
        assert attention_gflops(geom, 16) == 16 * attention_gflops(geom, 1)
        longer = AttentionGeometry(1, 2, 2, 400, 16)
        assert attention_gflops(longer, 1) == 4 * attention_gflops(geom, 1)
