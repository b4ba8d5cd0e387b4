"""End-to-end decode latency model."""

import pytest

from repro.baselines.flash_decoding import FlashDecodingV2
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.config import LLAMA31_8B, LLAMA31_70B
from repro.model.inference import (
    decode_step_breakdown,
    decode_step_ms,
    decode_throughput_tokens_per_s,
    mixed_step_breakdown,
    mixed_step_ms,
    prefill_attention_flops,
    prefill_time_ms,
    weight_gemm_ms,
)


class TestWeightGemm:
    def test_memory_bound_at_small_batch(self, a100):
        t1 = weight_gemm_ms(LLAMA31_8B, a100, batch=1)
        t8 = weight_gemm_ms(LLAMA31_8B, a100, batch=8)
        assert t1 == pytest.approx(t8)  # streaming weights dominates

    def test_compute_bound_at_huge_batch(self, a100):
        t_small = weight_gemm_ms(LLAMA31_8B, a100, batch=1)
        t_large = weight_gemm_ms(LLAMA31_8B, a100, batch=2048)
        assert t_large > 2 * t_small

    def test_tensor_parallel_divides(self, a100):
        t1 = weight_gemm_ms(LLAMA31_70B, a100, batch=1, n_gpus=1)
        t8 = weight_gemm_ms(LLAMA31_70B, a100, batch=1, n_gpus=8)
        assert t8 == pytest.approx(t1 / 8)

    def test_validation(self, a100):
        with pytest.raises(ValueError):
            weight_gemm_ms(LLAMA31_8B, a100, batch=0)


class TestDecodeStep:
    def test_breakdown_sums(self, a100):
        attn = FlashDecodingV2(a100)
        bd = decode_step_breakdown(LLAMA31_8B, a100, attn, batch=4, seq_len=8192)
        assert bd.total_ms == pytest.approx(
            bd.weights_ms + bd.attention_ms + bd.overhead_ms + bd.comm_ms
        )
        assert bd.comm_ms == 0  # single GPU

    def test_multi_gpu_adds_comm(self, a100):
        attn = FlashDecodingV2(a100)
        bd = decode_step_breakdown(LLAMA31_70B, a100, attn, batch=1, seq_len=8192, n_gpus=8)
        assert bd.comm_ms > 0

    def test_attention_grows_with_context(self, a100):
        attn = FlashDecodingV2(a100)
        t1 = decode_step_ms(LLAMA31_8B, a100, attn, batch=1, seq_len=8192)
        t2 = decode_step_ms(LLAMA31_8B, a100, attn, batch=1, seq_len=131072)
        assert t2 > t1

    def test_bitdecoding_cuts_long_context_latency(self, a100):
        fp16 = FlashDecodingV2(a100)
        bd = BitDecoding(BitDecodingConfig(bits=4), a100)
        t_fp16 = decode_step_ms(LLAMA31_8B, a100, fp16, batch=1, seq_len=131072)
        t_bd = decode_step_ms(LLAMA31_8B, a100, bd, batch=1, seq_len=131072)
        assert 1.3 < t_fp16 / t_bd < 4.0  # paper: ~3x at 128K


class TestMixedStep:
    def test_pure_decode_matches_decode_step(self, a100):
        attn = FlashDecodingV2(a100)
        mixed = mixed_step_ms(LLAMA31_8B, a100, attn, 8, 4096, prefill_chunks=[])
        plain = decode_step_ms(LLAMA31_8B, a100, attn, batch=8, seq_len=4096)
        assert mixed == pytest.approx(plain)

    def test_chunk_attention_flops_telescope(self):
        whole = prefill_attention_flops(LLAMA31_8B, 0, 4096)
        chunked = sum(prefill_attention_flops(LLAMA31_8B, ctx, 512) for ctx in range(0, 4096, 512))
        assert chunked == pytest.approx(whole)

    def test_chunked_prefill_total_exceeds_whole_prompt(self, a100):
        """Chunking repeats per-step overheads and loses weight-GEMM
        efficiency, so the summed chunk steps cost more than one prefill —
        the TTFT price of not head-of-line blocking."""
        attn = FlashDecodingV2(a100)
        whole = prefill_time_ms(LLAMA31_8B, a100, 4096)
        chunked = sum(
            mixed_step_ms(LLAMA31_8B, a100, attn, 0, 0, [(ctx, 512)])
            for ctx in range(0, 4096, 512)
        )
        assert chunked > whole

    def test_mixed_step_cheaper_than_stall(self, a100):
        """One mixed step (chunk + decode batch) must cost far less than a
        whole-prompt prefill — the inequality the TBT collapse rests on."""
        attn = FlashDecodingV2(a100)
        mixed = mixed_step_ms(LLAMA31_8B, a100, attn, 4, 8192, [(2048, 512)])
        stall = prefill_time_ms(LLAMA31_8B, a100, 32768)
        assert mixed < stall / 10

    def test_breakdown_carries_composition(self, a100):
        attn = FlashDecodingV2(a100)
        bd = mixed_step_breakdown(LLAMA31_8B, a100, attn, 4, 8192, [(0, 512), (1024, 256)])
        assert bd.prefill_tokens == 768
        assert bd.decode_tokens == 4
        assert bd.total_ms == pytest.approx(
            bd.weights_ms + bd.attention_ms + bd.overhead_ms + bd.comm_ms
        )
        assert bd.comm_ms == 0  # single GPU

    def test_weights_see_combined_tokens(self, a100):
        attn = FlashDecodingV2(a100)
        small = mixed_step_breakdown(LLAMA31_8B, a100, attn, 1, 1024, [(0, 64)])
        large = mixed_step_breakdown(LLAMA31_8B, a100, attn, 1, 1024, [(0, 4096)])
        assert large.weights_ms > small.weights_ms

    def test_multi_gpu_comm_counts_all_tokens(self, a100):
        attn = FlashDecodingV2(a100)
        bd = mixed_step_breakdown(LLAMA31_70B, a100, attn, 2, 4096, [(0, 512)], n_gpus=8)
        decode_only = decode_step_breakdown(LLAMA31_70B, a100, attn, 2, 4096, n_gpus=8)
        assert bd.comm_ms > decode_only.comm_ms

    def test_validation(self, a100):
        attn = FlashDecodingV2(a100)
        with pytest.raises(ValueError):
            mixed_step_ms(LLAMA31_8B, a100, attn, 0, 0, [])
        with pytest.raises(ValueError):
            mixed_step_ms(LLAMA31_8B, a100, attn, -1, 128, [(0, 64)])
        with pytest.raises(ValueError):
            prefill_attention_flops(LLAMA31_8B, -1, 64)


class TestThroughputAndGeneration:
    def test_throughput_is_batch_over_step(self, a100):
        attn = FlashDecodingV2(a100)
        step = decode_step_ms(LLAMA31_8B, a100, attn, batch=8, seq_len=4096)
        tput = decode_throughput_tokens_per_s(LLAMA31_8B, a100, attn, 8, 4096)
        assert tput == pytest.approx(8 / (step * 1e-3))
