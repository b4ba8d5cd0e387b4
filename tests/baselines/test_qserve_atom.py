"""QServe / Atom: CUDA-core-only behaviour and GQA collapse."""

import pytest

from repro.baselines.atom import Atom
from repro.baselines.flash_decoding import FlashDecodingV2
from repro.baselines.qserve import QServe
from repro.core.config import AttentionGeometry
from repro.model.config import LLAMA31_8B
from repro.model.memory import cache_bytes_per_token, fp16_format, int_format


class TestNoTensorCores:
    def test_qserve_issues_zero_tc_flops(self, a100):
        launch = QServe(a100, 4).build_launch(AttentionGeometry(8, 32, 8, 2048, 128))
        assert not launch.trace.tc_flops
        assert launch.trace.fma_flops > 0

    def test_atom_issues_zero_tc_flops(self, a100):
        launch = Atom(a100, 4).build_launch(AttentionGeometry(8, 32, 32, 2048, 128))
        assert not launch.trace.tc_flops

    def test_atom_uses_cvt_dequant(self, a100):
        launch = Atom(a100, 4).build_launch(AttentionGeometry(8, 32, 32, 2048, 128))
        assert launch.trace.cvt_ops > 0


class TestAtomIsQServesMhaVariant:
    def test_same_launch_but_dequant_group_and_page_table(self, a100):
        """On MHA, Atom's launch is QServe's at group 128 with cvt casts and
        no page-table read: contiguous, only the dequant pipe differs."""
        geom = AttentionGeometry(8, 32, 32, 2048, 128)
        atom = Atom(a100, 4).build_launch(geom, paged=False).trace
        qserve = QServe(a100, 4, group_size=128).build_launch(geom, paged=False).trace
        assert atom.gmem_read_bytes == qserve.gmem_read_bytes
        assert atom.fma_flops == qserve.fma_flops
        assert atom.cvt_ops > 0 and qserve.cvt_ops == 0

    def test_only_qserve_reads_the_page_table(self, a100):
        geom = AttentionGeometry(8, 32, 32, 2048, 128)
        for system, extra in ((QServe(a100, 4), True), (Atom(a100, 4), False)):
            paged = system.build_launch(geom, paged=True).trace.gmem_read_bytes
            contiguous = system.build_launch(geom, paged=False).trace.gmem_read_bytes
            assert (paged > contiguous) == extra


class TestGqaBehaviour:
    def test_atom_rejects_gqa(self, a100):
        with pytest.raises(ValueError, match="GQA"):
            Atom(a100, 4).build_launch(AttentionGeometry(8, 32, 8, 2048, 128))

    def test_qserve_gqa_speedup_collapses(self, rtx4090):
        """Fig. 10 Pages: QServe 3.5x on MHA -> 1.4x on GQA."""
        fd = FlashDecodingV2(rtx4090)
        qs = QServe(rtx4090, 4)
        mha = AttentionGeometry(8, 32, 32, 2048, 128)
        gqa = AttentionGeometry(8, 32, 8, 2048, 128)
        s_mha = fd.decode_time_ms(mha, paged=True) / qs.decode_time_ms(mha)
        s_gqa = fd.decode_time_ms(gqa, paged=True) / qs.decode_time_ms(gqa)
        assert s_gqa < 0.75 * s_mha
        assert s_mha > 2.0

    def test_qserve_below_fp16_on_a100(self, a100):
        """Fig. 11: the A100's weak CUDA cores sink QServe below FP16."""
        geom = AttentionGeometry(8, 32, 8, 2048, 128)
        fd_time = FlashDecodingV2(a100).decode_time_ms(geom, paged=True)
        qs_time = QServe(a100, 4).decode_time_ms(geom)
        assert qs_time > 0.7 * fd_time  # at best marginal, often worse

    def test_qserve_compute_bound_under_gqa_on_a100(self, a100):
        geom = AttentionGeometry(32, 128, 16, 32768, 128)  # gq = 8
        result = QServe(a100, 4).decode_result(geom)
        assert result.bound_by == "fma"


class TestDequantOverheadAttribution:
    def test_both_register_dequant_subtraces(self, rtx4090):
        geom = AttentionGeometry(8, 32, 32, 2048, 128)
        for system in (QServe(rtx4090, 4), Atom(rtx4090, 4)):
            result = system.decode_result(geom)
            assert result.subtrace_times.get("dequant", 0) > 0

    def test_cache_bytes_below_fp16(self, a100):
        """The cache fig13 sizes for QServe (INT4, one half2 per 64 key
        channels' tokens) costs under half the FP16 cache per token."""
        model = LLAMA31_8B
        fmt = int_format(4, model, group_size=QServe(a100, 4).group_size)
        assert cache_bytes_per_token(model, fmt) < cache_bytes_per_token(model, fp16_format()) / 2
