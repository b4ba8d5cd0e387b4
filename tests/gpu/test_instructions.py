"""Instruction cost-model invariants."""

import pytest

from repro.gpu.instructions import (
    dequant_ops,
    p_requant_ops,
    quant_pack_ops,
    rescale_accum_ops,
    softmax_ops,
)
from repro.gpu.trace import OpTrace


class TestDequantCosts:
    def test_lop3_avoids_cvt_pipe(self):
        t = dequant_ops(1024, 4, "lop3")
        assert t.cvt_ops == 0
        assert t.alu_ops > 0
        assert t.fma_flops > 0

    def test_cvt_path_uses_cvt_pipe(self):
        t = dequant_ops(1024, 4, "cvt")
        assert t.cvt_ops == 1024

    def test_int2_unpack_costs_more_logic_than_int4(self):
        t4 = dequant_ops(1024, 4, "lop3")
        t2 = dequant_ops(1024, 2, "lop3")
        assert t2.alu_ops > t4.alu_ops

    def test_costs_scale_linearly(self):
        a = dequant_ops(100, 4)
        b = dequant_ops(200, 4)
        assert b.alu_ops == pytest.approx(2 * a.alu_ops)
        assert b.fma_flops == pytest.approx(2 * a.fma_flops)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            dequant_ops(10, 4, "magic")

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            dequant_ops(10, 3)


class TestQuantPackCosts:
    def test_includes_shfl_butterfly_per_group(self):
        t = quant_pack_ops(640, 4, group_size=64)
        assert t.shfl_ops == pytest.approx(10 * 10)  # 10 groups x 10 shfl

    def test_smaller_groups_cost_more_reduction(self):
        coarse = quant_pack_ops(4096, 4, group_size=128)
        fine = quant_pack_ops(4096, 4, group_size=32)
        assert fine.shfl_ops > coarse.shfl_ops
        assert fine.fma_flops > coarse.fma_flops

    def test_group_size_must_be_positive(self):
        with pytest.raises(ValueError):
            quant_pack_ops(10, 4, 0)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            quant_pack_ops(10, 5, 32)


class TestSoftmaxCosts:
    def test_exp_per_score(self):
        t = softmax_ops(1000, 10)
        assert t.sfu_ops == 1000

    def test_cooperative_adds_smem_round_trips(self):
        solo = softmax_ops(1000, 10, coop_warps=1)
        coop = softmax_ops(1000, 10, coop_warps=4)
        assert solo.smem_bytes == 0
        assert coop.smem_bytes > 0
        assert coop.shfl_ops > solo.shfl_ops

    def test_requant_cheaper_than_full_dequant(self):
        rq = p_requant_ops(1000)
        dq = dequant_ops(1000, 4, "lop3")
        assert rq.fma_flops <= dq.fma_flops
        assert rq.cvt_ops == 0

    def test_rescale_two_flops_per_value(self):
        trace = OpTrace(fma_flops=1.0)
        assert rescale_accum_ops(100, trace) is trace
        assert trace.fma_flops == 201
