"""Serving model: capacity, max batch, throughput chain."""

import pytest

from repro.baselines.flash_decoding import FlashDecodingV2
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.config import LLAMA2_7B, LLAMA31_8B, LLAMA31_70B
from repro.model.inference import prefill_time_ms
from repro.model.memory import (
    NVME_LATENCY_US,
    NVME_READ_GBS,
    NVME_WRITE_GBS,
    PCIE_GBS,
    PCIE_LATENCY_US,
    cache_bytes_per_token,
    fp16_format,
    int_format,
    kv_budget_bytes,
    memory_budget_bytes,
    memory_required_bytes,
    page_bytes,
    page_pool_size,
    pages_in_budget,
    residual_bytes_per_seq,
    transfer_ms,
)
from repro.model.serving import (
    ServingOOMError,
    fits,
    max_batch_size,
    max_throughput_tokens_per_s,
)


class TestCacheFormats:
    def test_fp16_baseline(self):
        assert fp16_format().bits_per_value == 16

    def test_int_format_has_metadata(self):
        fmt = int_format(4, LLAMA31_8B)
        assert fmt.bits_per_value == 4
        assert fmt.meta_bytes_per_token_layer > 0

    def test_bytes_per_token_ordering(self):
        fp16 = cache_bytes_per_token(LLAMA31_8B, fp16_format())
        int4 = cache_bytes_per_token(LLAMA31_8B, int_format(4, LLAMA31_8B))
        int2 = cache_bytes_per_token(LLAMA31_8B, int_format(2, LLAMA31_8B))
        assert fp16 > 3 * int4
        assert int4 > 1.5 * int2

    def test_paper_intro_example(self):
        """Sec. I: a 7B model at 32K x batch 8 needs ~128GB of FP16 KV."""
        per_token = cache_bytes_per_token(LLAMA2_7B, fp16_format())
        total = 8 * 32768 * per_token
        assert 120e9 < total < 145e9


class TestCapacity:
    def test_memory_includes_weights(self, a100):
        req = memory_required_bytes(LLAMA31_8B, fp16_format(), 1, 1024)
        assert req > LLAMA31_8B.weights_bytes()

    def test_quantization_multiplies_max_batch(self, a100):
        fp16_bs = max_batch_size(LLAMA31_8B, a100, fp16_format(), 32768)
        int4_bs = max_batch_size(LLAMA31_8B, a100, int_format(4, LLAMA31_8B), 32768)
        int2_bs = max_batch_size(LLAMA31_8B, a100, int_format(2, LLAMA31_8B), 32768)
        assert int4_bs >= 3 * fp16_bs
        assert int2_bs > int4_bs

    def test_zero_when_nothing_fits(self, rtx4090):
        # 70B weights alone exceed a 24GB card.
        assert max_batch_size(LLAMA31_70B, rtx4090, fp16_format(), 1024) == 0

    def test_multi_gpu_divides_footprint(self, a100):
        assert not fits(LLAMA31_70B, a100, fp16_format(), 1, 32768, n_gpus=1)
        assert fits(LLAMA31_70B, a100, fp16_format(), 1, 32768, n_gpus=8)


    def test_kv_budget_is_usable_memory_less_weights(self, a100, rtx4090):
        usable = a100.memory_gb * 1024 ** 3 * 0.9
        assert memory_budget_bytes(a100) == pytest.approx(usable)
        weights = LLAMA31_8B.weights_bytes()
        assert kv_budget_bytes(LLAMA31_8B, a100) == pytest.approx(usable - weights)
        # Tensor parallelism splits the weights, never the per-GPU budget.
        assert kv_budget_bytes(LLAMA31_8B, a100, n_gpus=2) == pytest.approx(usable - weights / 2)
        assert kv_budget_bytes(LLAMA31_70B, rtx4090) == 0.0


class TestTransferPricing:
    NBYTES = 1 << 20

    def test_same_tier_is_free(self):
        for tier in ("device", "host", "disk"):
            assert transfer_ms(self.NBYTES, tier, tier) == 0.0

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown memory tier"):
            transfer_ms(self.NBYTES, "device", "tape")

    def test_pcie_leg_is_latency_plus_bandwidth(self):
        expected = PCIE_LATENCY_US * 1e-3 + self.NBYTES / (PCIE_GBS * 1e9) * 1e3
        assert transfer_ms(self.NBYTES, "device", "host") == pytest.approx(expected)
        assert transfer_ms(self.NBYTES, "host", "device") == pytest.approx(expected)

    def test_nvme_reads_outpace_writes(self):
        read = transfer_ms(self.NBYTES, "disk", "host")
        write = transfer_ms(self.NBYTES, "host", "disk")
        assert read == pytest.approx(
            NVME_LATENCY_US * 1e-3 + self.NBYTES / (NVME_READ_GBS * 1e9) * 1e3
        )
        assert write == pytest.approx(
            NVME_LATENCY_US * 1e-3 + self.NBYTES / (NVME_WRITE_GBS * 1e9) * 1e3
        )
        assert read < write

    def test_device_disk_stages_through_host(self):
        for a, b in (("device", "disk"), ("disk", "device")):
            assert transfer_ms(self.NBYTES, a, b) == pytest.approx(
                transfer_ms(self.NBYTES, a, "host") + transfer_ms(self.NBYTES, "host", b)
            )


class TestSharedMemoryAccounting:
    """The static model and the serving engine share one byte code path."""

    def test_residual_window_costs_memory(self):
        plain = int_format(2, LLAMA31_8B)
        windowed = int_format(2, LLAMA31_8B, residual_window=64)
        assert residual_bytes_per_seq(LLAMA31_8B, plain) == 0
        assert residual_bytes_per_seq(LLAMA31_8B, windowed) == pytest.approx(
            64 * LLAMA31_8B.kv_bytes_per_token(16.0)
        )
        assert memory_required_bytes(LLAMA31_8B, windowed, 8, 1024) > (
            memory_required_bytes(LLAMA31_8B, plain, 8, 1024)
        )

    def test_page_pool_orders_by_bits(self, a100):
        fp16 = page_pool_size(LLAMA31_8B, a100, fp16_format())
        int4 = page_pool_size(LLAMA31_8B, a100, int_format(4, LLAMA31_8B))
        int2 = page_pool_size(LLAMA31_8B, a100, int_format(2, LLAMA31_8B))
        assert fp16 > 0
        assert int4 > 3 * fp16
        assert int2 > int4

    def test_reserved_seqs_shrink_pool(self, a100):
        fmt = int_format(4, LLAMA31_8B, residual_window=64)
        free = page_pool_size(LLAMA31_8B, a100, fmt)
        reserved = page_pool_size(LLAMA31_8B, a100, fmt, reserved_seqs=256)
        assert 0 < reserved < free

    def test_pool_empty_when_weights_exceed_memory(self, rtx4090):
        assert page_pool_size(LLAMA31_70B, rtx4090, fp16_format()) == 0

    def test_pages_in_budget_matches_page_bytes(self):
        fmt = fp16_format()
        per_page = page_bytes(LLAMA31_8B, fmt, 64)
        assert pages_in_budget(LLAMA31_8B, fmt, 64, 10 * per_page) == 10

    def test_multi_gpu_pool_matches_static_model(self, a100):
        """The engine's sharded page pool and the static max-batch model
        must describe the same capacity (70B only fits on 8 GPUs)."""
        fmt = fp16_format()
        seq_len = 32768
        pool_pages = page_pool_size(LLAMA31_70B, a100, fmt, page_size=64, n_gpus=8)
        pool_tokens = pool_pages * 64
        static_tokens = max_batch_size(LLAMA31_70B, a100, fmt, seq_len, n_gpus=8) * seq_len
        assert static_tokens > 0
        assert static_tokens <= pool_tokens < static_tokens + 2 * seq_len

    def test_prefill_time_grows_superlinearly(self, a100):
        short = prefill_time_ms(LLAMA31_8B, a100, 1024)
        long = prefill_time_ms(LLAMA31_8B, a100, 16384)
        assert long > 16 * short  # attention term is quadratic


class TestThroughput:
    def test_bitdecoding_beats_fp16_serving(self, a100):
        fp16 = max_throughput_tokens_per_s(
            LLAMA31_8B, a100, fp16_format(), FlashDecodingV2(a100), 32768
        )
        bd = max_throughput_tokens_per_s(
            LLAMA31_8B, a100, int_format(4, LLAMA31_8B),
            BitDecoding(BitDecodingConfig(bits=4), a100), 32768,
        )
        assert 2.0 < bd / fp16 < 6.5  # paper Table I: +2.98x

    def test_oom_raises(self, rtx4090):
        with pytest.raises(ServingOOMError):
            max_throughput_tokens_per_s(
                LLAMA31_70B, rtx4090, fp16_format(), FlashDecodingV2(rtx4090), 32768
            )

    def test_int2_highest_throughput(self, a100):
        results = {}
        for bits in (4, 2):
            engine = BitDecoding(BitDecodingConfig(bits=bits), a100)
            results[bits] = max_throughput_tokens_per_s(
                LLAMA31_8B, a100, int_format(bits, LLAMA31_8B), engine, 32768
            )
        assert results[2] > results[4]
