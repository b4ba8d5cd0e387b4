"""Configuration objects: geometry derivations and ablation flags."""

import pytest

from repro.core.config import AttentionGeometry, BitDecodingConfig

from tests.reference_cache import key_scheme


class TestAttentionGeometry:
    def test_gq(self):
        assert AttentionGeometry(1, 32, 8, 100, 128).gq == 4

    def test_kv_bytes(self):
        g = AttentionGeometry(2, 32, 8, 1024, 128)
        assert g.kv_elements == 2 * 2 * 8 * 1024 * 128
        assert g.kv_bytes_fp16 == g.kv_elements * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AttentionGeometry(0, 32, 8, 100, 128)
        with pytest.raises(ValueError, match="multiple"):
            AttentionGeometry(1, 30, 8, 100, 128)


class TestBitDecodingConfig:
    def test_defaults_are_the_paper_flagship(self):
        cfg = BitDecodingConfig()
        assert cfg.bits == 4
        assert cfg.granularity == "channel"
        assert cfg.residual_block_size == 128
        assert cfg.effective_wn == 4

    def test_residual_block_follows_eq1(self):
        assert BitDecodingConfig(bits=2).residual_block_size == 256
        assert BitDecodingConfig(bits=8).residual_block_size == 64
        assert BitDecodingConfig(bits=4, wn=8).residual_block_size == 256

    def test_warp_ablation_shrinks_block(self):
        cfg = BitDecodingConfig(use_warp_parallel=False)
        assert cfg.effective_wn == 1
        assert cfg.residual_block_size == 32

    def test_instruction_paths(self):
        assert BitDecodingConfig(version="v2").instruction_path == "sm80"
        assert BitDecodingConfig(version="v3").instruction_path == "sm90"
        assert BitDecodingConfig(version="fp4").instruction_path == "blackwell_fp4"

    def test_short_names(self):
        assert BitDecodingConfig(bits=4).short_name == "BitDecoding-KC-4 (v2)"
        assert (
            BitDecodingConfig(bits=2, granularity="tensor", version="v3").short_name
            == "BitDecoding-KT-2 (v3)"
        )
        assert BitDecodingConfig(version="fp4").short_name == "BitDecoding-mxfp4"

    def test_with_overrides_copies(self):
        cfg = BitDecodingConfig()
        ablated = cfg.with_overrides(use_pipeline=False)
        assert cfg.use_pipeline and not ablated.use_pipeline
        assert ablated.bits == cfg.bits

    def test_storage_bits(self):
        assert BitDecodingConfig(bits=2).storage_bits_per_value == 2.0
        assert BitDecodingConfig(version="fp4").storage_bits_per_value == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BitDecodingConfig(version="v4")
        with pytest.raises(ValueError):
            BitDecodingConfig(bits=3)
        with pytest.raises(ValueError):
            BitDecodingConfig(dequant_method="simd")
        with pytest.raises(ValueError):
            BitDecodingConfig(tile_n=0)

    def test_key_scheme_reflects_config(self):
        cfg = BitDecodingConfig(bits=2, granularity="tensor", key_group_size=32)
        scheme = key_scheme(cfg)
        assert scheme.bits == 2
        assert scheme.granularity == "tensor"
        assert scheme.group_size == 32

    def test_packing_ratio(self):
        assert BitDecodingConfig(bits=4).packing_ratio == 4
        assert BitDecodingConfig(bits=2).packing_ratio == 8
