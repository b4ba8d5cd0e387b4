"""Residual KV cache: Eq. 1 sizing, partitioning, append/flush protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BitDecodingConfig
from repro.core.residual_cache import BatchedResidual, partition_prefill
from tests.reference_cache import ResidualBuffer


class TestEquationOne:
    @pytest.mark.parametrize(
        "wn,bits,word_bits,expected",
        [
            (4, 4, 16, 128),   # the paper's flagship INT4 configuration
            (4, 2, 16, 256),   # INT2 (matches "N_r always <= 256")
            (1, 4, 16, 32),    # Wn ablation
            (4, 8, 16, 64),
            (4, 4, 32, 256),
        ],
    )
    def test_block_sizes(self, wn, bits, word_bits, expected):
        config = BitDecodingConfig(wn=wn, bits=bits, word_bits=word_bits)
        assert config.residual_block_size == expected

    def test_block_size_is_mma_aligned(self):
        """N_r must tile evenly by the warp footprint P_n x W_n."""
        for wn in (1, 2, 4, 8):
            for bits in (2, 4, 8):
                nr = BitDecodingConfig(wn=wn, bits=bits).residual_block_size
                assert nr % (8 * wn) == 0

    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError, match="wn"):
            BitDecodingConfig(wn=0, bits=4)


class TestPartition:
    @pytest.mark.parametrize(
        "seq,block,packed,res",
        [(1000, 128, 896, 104), (1024, 128, 1024, 0), (100, 128, 0, 100), (0, 128, 0, 0)],
    )
    def test_partition(self, seq, block, packed, res):
        assert partition_prefill(seq, block) == (packed, res)

    def test_partition_conserves_tokens(self):
        for seq in range(0, 600, 37):
            packed, res = partition_prefill(seq, 128)
            assert packed + res == seq
            assert packed % 128 == 0
            assert 0 <= res < 128

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            partition_prefill(-1, 128)
        with pytest.raises(ValueError):
            partition_prefill(10, 0)


#: The per-head reference buffer and the batched one at two cache shapes.
#: ``lead`` is the ``(batch, hkv)`` prefix every row tensor carries (none
#: for the per-head buffer); the protocol is otherwise the same.
BUFFERS = {
    "reference": ((), lambda capacity, head_dim: ResidualBuffer(capacity, head_dim)),
    "batched-1x1": ((1, 1), lambda capacity, head_dim: BatchedResidual(1, 1, capacity, head_dim)),
    "batched-2x3": ((2, 3), lambda capacity, head_dim: BatchedResidual(2, 3, capacity, head_dim)),
}


@pytest.fixture(params=sorted(BUFFERS))
def buffer(request):
    """``(lead, make)``: the row prefix and a ``make(capacity, head_dim)``."""
    return BUFFERS[request.param]


def _rows(rng, lead, n, d):
    """``n`` FP16 rows of width ``d`` under ``lead``: ``lead + (n, d)``."""
    return rng.standard_normal((*lead, n, d)).astype(np.float16)


class TestResidualBuffer:
    def test_starts_empty(self, buffer):
        _, make = buffer
        buf = make(8, 4)
        assert buf.length == 0
        assert not buf.is_full

    def test_append_until_flush(self, rng, buffer):
        lead, make = buffer
        buf = make(4, 8)
        rows_k, rows_v = _rows(rng, lead, 4, 8), _rows(rng, lead, 4, 8)
        for i in range(3):
            assert buf.append(rows_k[..., i, :], rows_v[..., i, :]) is None
        flushed = buf.append(rows_k[..., 3, :], rows_v[..., 3, :])
        assert flushed is not None
        np.testing.assert_array_equal(flushed[0], rows_k)
        np.testing.assert_array_equal(flushed[1], rows_v)
        # Buffer resets after the flush.
        assert buf.length == 0

    def test_flush_returns_copies(self, rng, buffer):
        lead, make = buffer
        buf = make(2, 4)
        k, v = _rows(rng, lead, 2, 4), _rows(rng, lead, 2, 4)
        buf.append(k[..., 0, :], v[..., 0, :])
        flushed_k, _ = buf.append(k[..., 1, :], v[..., 1, :])
        buf.append(k[..., 0, :] * 0 + 9, v[..., 0, :])  # overwrite internal storage
        np.testing.assert_array_equal(flushed_k, k)

    def test_fill_from_prefill_remainder(self, rng, buffer):
        lead, make = buffer
        buf = make(8, 4)
        buf.fill(_rows(rng, lead, 5, 4), _rows(rng, lead, 5, 4))
        assert buf.length == 5
        k_view, v_view = buf.view()
        assert k_view.shape == (*lead, 5, 4)

    def test_fill_with_full_block_rejected(self, buffer):
        lead, make = buffer
        buf = make(4, 4)
        full = np.zeros((*lead, 4, 4), np.float16)
        with pytest.raises(ValueError, match="smaller"):
            buf.fill(full, full)

    def test_mismatched_kv_lengths_rejected(self, buffer):
        lead, make = buffer
        buf = make(8, 4)
        with pytest.raises(ValueError, match="equal length"):
            buf.fill(np.zeros((*lead, 3, 4), np.float16), np.zeros((*lead, 2, 4), np.float16))

    def test_view_is_fp16(self, buffer):
        lead, make = buffer
        buf = make(4, 4)
        buf.append(np.ones((*lead, 4)), np.ones((*lead, 4)))
        k_view, v_view = buf.view()
        assert k_view.dtype == np.float16

    def test_constant_memory_footprint(self, buffer):
        lead, make = buffer
        buf = make(128, 128)
        expected = 2 * 128 * 128 * 2 * int(np.prod(lead))
        assert buf.nbytes == expected


class TestProperties:
    @pytest.mark.parametrize("kind", sorted(BUFFERS))
    @given(
        capacity=st.integers(1, 64),
        n_appends=st.integers(1, 400),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_append_stream_invariants(self, kind, capacity, n_appends, seed):
        """Over any append stream: flush count and residual length obey
        modular arithmetic, and no token is lost."""
        lead, make = BUFFERS[kind]
        rng = np.random.default_rng(seed)
        buf = make(capacity, 2)
        flushes = 0
        total_flushed_rows = 0
        for i in range(n_appends):
            out = buf.append(rng.standard_normal((*lead, 2)), rng.standard_normal((*lead, 2)))
            if out is not None:
                flushes += 1
                total_flushed_rows += out[0].shape[-2]
        assert flushes == n_appends // capacity
        assert buf.length == n_appends % capacity
        assert total_flushed_rows + buf.length == n_appends
