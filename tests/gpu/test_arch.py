"""Architecture-spec invariants."""

import dataclasses

import pytest

from repro.gpu.arch import GENERATIONS, GPU_REGISTRY, ArchSpec, get_arch


class TestRegistry:
    def test_all_expected_devices_registered(self):
        assert set(GPU_REGISTRY) == {
            "a100", "rtx4090", "h100", "rtx5090", "rtx_pro_6000",
        }

    def test_lookup_is_case_insensitive(self):
        assert get_arch("A100") is get_arch("a100")

    def test_unknown_device_raises_with_known_list(self):
        with pytest.raises(KeyError, match="rtx4090"):
            get_arch("rtx9999")

    def test_every_generation_in_order(self):
        for spec in GPU_REGISTRY.values():
            assert spec.generation in GENERATIONS


class TestDerivedQuantities:
    def test_cycle_time_matches_clock(self, a100):
        assert a100.cycle_s == pytest.approx(1.0 / (1.41e9))

    def test_tc_flops_fp16_positive_everywhere(self, any_arch):
        assert any_arch.tc_flops_per_s("fp16") > 0

    def test_fp4_only_on_blackwell(self, any_arch):
        if any_arch.generation == "blackwell":
            assert any_arch.tc_flops_per_s("fp4") > 0
        else:
            with pytest.raises(ValueError):
                any_arch.tc_flops_per_s("fp4")

    def test_unknown_precision_raises(self, a100):
        with pytest.raises(ValueError, match="precision"):
            a100.tc_flops_per_s("fp2")

    def test_alu_rate_scales_with_sm_count(self, a100, h100):
        ratio = h100.alu_ops_per_s() / a100.alu_ops_per_s()
        expected = (h100.sm_count * h100.clock_ghz) / (a100.sm_count * a100.clock_ghz)
        assert ratio == pytest.approx(expected)

    def test_tensor_core_dwarfs_cuda_cores(self, any_arch):
        # The paper's motivating observation (Sec. II).  The consumer Ada
        # part has the smallest gap (exactly 2x at FP32 accumulate).
        assert any_arch.tc_flops_per_s("fp16") >= 2 * any_arch.cuda_flops_per_s


class TestGenerationOrdering:
    def test_is_at_least_reflexive(self, any_arch):
        assert any_arch.is_at_least(any_arch.generation)

    def test_hopper_at_least_ampere(self, h100):
        assert h100.is_at_least("ampere")
        assert not h100.is_at_least("blackwell")

    def test_unknown_generation_raises(self, a100):
        with pytest.raises(ValueError):
            a100.is_at_least("volta")


class TestFeatureFlags:
    def test_wgmma_only_on_hopper(self):
        assert get_arch("h100").has_wgmma
        assert not get_arch("a100").has_wgmma
        assert not get_arch("rtx4090").has_wgmma

    def test_native_fp4_only_on_blackwell(self):
        assert get_arch("rtx5090").has_native_fp4
        assert get_arch("rtx_pro_6000").has_native_fp4
        assert not get_arch("h100").has_native_fp4

    def test_legacy_penalty_only_on_post_ampere(self):
        assert get_arch("a100").legacy_path_efficiency == 1.0
        assert get_arch("h100").legacy_path_efficiency < 1.0


class TestValidation:
    def test_bad_generation_rejected(self):
        with pytest.raises(ValueError, match="generation"):
            ArchSpec(
                name="x", generation="volta", sm_count=80, clock_ghz=1.5,
                max_warps_per_sm=64, smem_per_sm_bytes=96 * 1024,
                registers_per_sm=65536, dram_bw_gbs=900, l2_size_mb=6,
                l2_bw_gbs=2000, smem_bytes_per_cycle=128,
                bw_saturation_warps=640, tc_fp16_tflops=125,
                tc_fp8_tflops=0, tc_fp4_tflops=0, cuda_fp32_tflops=15,
                alu_ops_per_sm_cycle=64, sfu_ops_per_sm_cycle=16,
                cvt_ops_per_sm_cycle=16,
            )

    @pytest.mark.parametrize(
        "rate",
        ["l2_bw_gbs", "smem_bytes_per_cycle", "cuda_fp32_tflops",
         "alu_ops_per_sm_cycle", "sfu_ops_per_sm_cycle", "cvt_ops_per_sm_cycle"],
    )
    def test_zero_on_chip_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="must be positive"):
            dataclasses.replace(get_arch("a100"), **{rate: 0})

    def test_native_fp4_requires_fp4_throughput(self):
        with pytest.raises(ValueError, match="FP4"):
            ArchSpec(
                name="x", generation="blackwell", sm_count=80, clock_ghz=1.5,
                max_warps_per_sm=64, smem_per_sm_bytes=96 * 1024,
                registers_per_sm=65536, dram_bw_gbs=900, l2_size_mb=6,
                l2_bw_gbs=2000, smem_bytes_per_cycle=128,
                bw_saturation_warps=640, tc_fp16_tflops=125,
                tc_fp8_tflops=250, tc_fp4_tflops=0, cuda_fp32_tflops=15,
                alu_ops_per_sm_cycle=64, sfu_ops_per_sm_cycle=16,
                cvt_ops_per_sm_cycle=16, has_native_fp4=True,
            )
