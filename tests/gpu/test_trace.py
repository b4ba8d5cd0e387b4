"""OpTrace accounting invariants (including hypothesis properties)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.trace import AccessPattern, OpTrace


def _tc(t):
    return sum(t.tc_flops.values())


def _gmem(t):
    return t.gmem_read_bytes + t.gmem_write_bytes


def _is_empty(t):
    """No work recorded: every byte, FLOP and op counter is zero."""
    counters = (t.l2_bytes, t.smem_bytes, t.fma_flops, t.alu_ops, t.cvt_ops, t.sfu_ops)
    return not any((_gmem(t), _tc(t), *counters, t.shfl_ops, t.ldmatrix_ops))


class TestRecording:
    def test_coalesced_read_effective_equals_raw(self):
        t = OpTrace()
        t.gmem_read(1000)
        assert t.gmem_read_bytes == 1000
        assert t.gmem_read_bytes_effective == 1000

    def test_strided_read_doubles_effective(self):
        t = OpTrace()
        t.gmem_read(1000, AccessPattern.STRIDED)
        assert t.gmem_read_bytes == 1000
        assert t.gmem_read_bytes_effective == 2000

    def test_scattered_write_quadruples_effective(self):
        t = OpTrace()
        t.gmem_write(1000, AccessPattern.SCATTERED)
        assert t.gmem_write_bytes_effective == 4000

    def test_total_effective_bytes_sum_reads_and_writes(self):
        t = OpTrace()
        t.gmem_read(1000, AccessPattern.STRIDED)
        t.gmem_write(1000, AccessPattern.SCATTERED)
        assert t.total_gmem_bytes_effective == 6000
        assert _gmem(t) == 2000

    def test_smem_conflict_inflates_effective(self):
        t = OpTrace()
        t.smem_traffic(256, conflict_factor=4.0)
        assert t.smem_bytes == 256
        assert t.smem_bytes_effective == 1024

    def test_smem_conflict_below_one_rejected(self):
        t = OpTrace()
        with pytest.raises(ValueError):
            t.smem_traffic(256, conflict_factor=0.5)

    def test_negative_bytes_rejected(self):
        t = OpTrace()
        with pytest.raises(ValueError):
            t.gmem_read(-1)
        with pytest.raises(ValueError):
            t.gmem_write(-1)
        with pytest.raises(ValueError):
            t.l2_read(-1)

    def test_tensor_core_by_precision(self):
        t = OpTrace()
        t.tensor_core(100, "fp16")
        t.tensor_core(50, "fp16")
        t.tensor_core(25, "fp4")
        assert t.tc_flops == {"fp16": 150, "fp4": 25}
        assert _tc(t) == 175

    def test_fresh_trace_is_empty(self):
        assert _is_empty(OpTrace())

    def test_any_recording_makes_non_empty(self):
        t = OpTrace()
        t.sfu_ops += 1
        assert not _is_empty(t)
        t = OpTrace()
        t.gmem_read(1)
        assert not _is_empty(t)


class TestAlgebra:
    def test_merge_accumulates_all_counters(self):
        a, b = OpTrace(), OpTrace()
        a.gmem_read(100)
        a.tensor_core(10)
        b.gmem_read(50, AccessPattern.STRIDED)
        b.fma_flops = 7
        a.merge(b)
        assert a.gmem_read_bytes == 150
        assert a.gmem_read_bytes_effective == 200
        assert a.fma_flops == 7
        assert _tc(a) == 10

    def test_merge_returns_self(self):
        a = OpTrace()
        assert a.merge(OpTrace()) is a

    def test_scaled_multiplies_everything(self):
        t = OpTrace()
        t.gmem_read(100)
        t.tensor_core(10, "fp16")
        t.alu_ops = 3
        t.barriers_per_block = 2
        s = t.scaled(2.5)
        assert s.gmem_read_bytes == 250
        assert s.tc_flops["fp16"] == 25
        assert s.alu_ops == 7.5
        assert s.barriers_per_block == 5
        # original untouched
        assert t.gmem_read_bytes == 100

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            OpTrace().scaled(-1)

    def test_without_subtracts_and_clamps(self):
        t = OpTrace()
        t.gmem_read(100)
        t.alu_ops = 10
        sub = OpTrace()
        sub.gmem_read(40)
        sub.alu_ops = 50  # more than present -> clamps to 0
        out = t.without(sub)
        assert out.gmem_read_bytes == 60
        assert out.alu_ops == 0
        assert t.alu_ops == 10  # original untouched

    def test_without_whole_trace_is_empty(self):
        t = OpTrace()
        t.gmem_read(100, AccessPattern.STRIDED)
        t.tensor_core(5)
        t.sfu_ops = 2
        out = t.without(t)
        assert _is_empty(out)


@st.composite
def traces(draw):
    t = OpTrace()
    t.gmem_read(draw(st.floats(0, 1e9)))
    t.gmem_write(draw(st.floats(0, 1e9)), AccessPattern.STRIDED)
    t.smem_traffic(draw(st.floats(0, 1e8)), draw(st.floats(1, 8)))
    t.tensor_core(draw(st.floats(0, 1e12)))
    t.fma_flops = draw(st.floats(0, 1e12))
    t.alu_ops = draw(st.floats(0, 1e10))
    t.sfu_ops = draw(st.floats(0, 1e10))
    return t


class TestProperties:
    @given(traces(), traces())
    @settings(max_examples=50, deadline=None)
    def test_merge_is_commutative_on_totals(self, a, b):
        left = a.scaled(1.0).merge(b)
        right = b.scaled(1.0).merge(a)
        assert _gmem(left) == pytest.approx(_gmem(right))
        assert _tc(left) == pytest.approx(_tc(right))
        assert left.alu_ops == pytest.approx(right.alu_ops)

    @given(traces(), st.floats(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_scaling_distributes_over_totals(self, t, k):
        assert _gmem(t.scaled(k)) == pytest.approx(_gmem(t) * k)

    @given(traces())
    @settings(max_examples=50, deadline=None)
    def test_effective_bytes_never_below_raw(self, t):
        assert t.gmem_read_bytes_effective >= t.gmem_read_bytes
        assert t.gmem_write_bytes_effective >= t.gmem_write_bytes
        assert t.smem_bytes_effective >= t.smem_bytes

    @given(traces(), traces())
    @settings(max_examples=50, deadline=None)
    def test_without_never_negative(self, a, b):
        out = a.without(b)
        assert out.gmem_read_bytes >= 0
        assert out.alu_ops >= 0
        assert out.smem_bytes >= 0
        assert all(v >= 0 for v in out.tc_flops.values())
