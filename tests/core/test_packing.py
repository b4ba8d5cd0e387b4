"""Bit packing/unpacking: round trips, interleave order, storage math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packing import (
    INTERLEAVE_75316420,
    _word_dtype,
    gather_pack_into,
    pack_values,
    packed_nbytes,
    packing_ratio,
    unpack_values,
)


class TestGatherPackInto:
    """The fused gather+pack must be bit-equal to take() then pack_values."""

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([1, 2, 4, 8]),
        word_bits=st.sampled_from([16, 32]),
        interleaved=st.booleans(),
        rows=st.integers(1, 4),
        n_words=st.integers(1, 32),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bit_equal_to_unfused(self, bits, word_bits, interleaved, rows, n_words, seed):
        ratio = packing_ratio(bits, word_bits)
        rng = np.random.default_rng(seed)
        n_values = n_words * ratio
        codes = rng.integers(0, 1 << bits, size=(rows, 2 * n_values), dtype=np.uint8)
        index = rng.permutation(2 * n_values)[:n_values]
        expected = pack_values(
            np.take(codes, index, axis=-1), bits, word_bits, interleaved=interleaved
        )
        out = np.empty((rows, n_words), _word_dtype(word_bits))
        gather_pack_into(codes, index, bits, out, word_bits, interleaved)
        np.testing.assert_array_equal(out, expected)

    def test_scratch_buffers_reused(self, rng):
        codes = rng.integers(0, 16, size=(2, 32), dtype=np.uint8)
        index = np.arange(32)
        out = np.empty((2, 8), np.uint16)
        scratch = (np.empty((2, 8), np.uint8), np.empty((2, 8), np.uint16))
        gather_pack_into(codes, index, 4, out, 16, True, scratch)
        expected = pack_values(np.take(codes, index, axis=-1), 4, 16, interleaved=True)
        np.testing.assert_array_equal(out, expected)

    def test_shape_mismatch_rejected(self, rng):
        codes = rng.integers(0, 16, size=(2, 32), dtype=np.uint8)
        with pytest.raises(ValueError, match="word tensor"):
            gather_pack_into(codes, np.arange(32), 4, np.empty((2, 4), np.uint16))
        with pytest.raises(ValueError, match="multiple"):
            gather_pack_into(codes, np.arange(31), 4, np.empty((2, 8), np.uint16))


class TestPackingRatio:
    @pytest.mark.parametrize(
        "bits,word_bits,expected",
        [(4, 16, 4), (2, 16, 8), (1, 16, 16), (8, 16, 2), (4, 32, 8), (2, 32, 16)],
    )
    def test_ratio(self, bits, word_bits, expected):
        assert packing_ratio(bits, word_bits) == expected

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            packing_ratio(3)

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            packing_ratio(4, 12)

    def test_word_narrower_than_value_rejected(self):
        with pytest.raises(ValueError):
            packing_ratio(8, 8) and packing_ratio(16, 8)


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("word_bits", [16, 32])
    @pytest.mark.parametrize("interleaved", [False, True])
    def test_round_trip_identity(self, rng, bits, word_bits, interleaved):
        ratio = packing_ratio(bits, word_bits)
        values = rng.integers(0, 1 << bits, size=(6, ratio * 5), dtype=np.uint8)
        words = pack_values(values, bits, word_bits, interleaved=interleaved)
        restored = unpack_values(words, bits, word_bits, interleaved=interleaved)
        np.testing.assert_array_equal(restored, values)

    def test_word_count(self, rng):
        values = rng.integers(0, 16, size=(3, 16), dtype=np.uint8)
        words = pack_values(values, 4, 16)
        assert words.shape == (3, 4)
        assert words.dtype == np.uint16

    def test_misaligned_length_rejected(self, rng):
        values = rng.integers(0, 16, size=(3, 15), dtype=np.uint8)
        with pytest.raises(ValueError, match="multiple"):
            pack_values(values, 4, 16)

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError, match="range"):
            pack_values(np.asarray([[16, 0, 0, 0]]), 4, 16)

    def test_interleaved_and_linear_differ(self, rng):
        values = np.arange(8, dtype=np.uint8).reshape(1, 8)
        linear = pack_values(values, 4, 32, interleaved=False)
        inter = pack_values(values, 4, 32, interleaved=True)
        assert linear[0, 0] != inter[0, 0]

    def test_cross_order_unpack_is_wrong(self, rng):
        """Packing interleaved but unpacking linear corrupts data — the
        config-coordination requirement of Sec. IV-A(4)."""
        values = rng.integers(0, 16, size=(1, 8), dtype=np.uint8)
        words = pack_values(values, 4, 32, interleaved=True)
        wrong = unpack_values(words, 4, 32, interleaved=False)
        assert not np.array_equal(wrong, values)


class TestInterleave75316420:
    def test_pattern_definition(self):
        # Logical value j lands in physical field INTERLEAVE[j]: first half
        # in even fields, second half in odd fields.
        assert INTERLEAVE_75316420 == (0, 2, 4, 6, 1, 3, 5, 7)

    def test_physical_nibble_placement(self):
        values = np.arange(8, dtype=np.uint8).reshape(1, 8)
        word = int(pack_values(values, 4, 32, interleaved=True)[0, 0])
        nibbles = [(word >> (4 * i)) & 0xF for i in range(8)]
        # Physical layout must read v0 v4 v1 v5 v2 v6 v3 v7.
        assert nibbles == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_fast_extract_returns_halves_in_order(self, rng):
        values = rng.integers(0, 16, size=(4, 8), dtype=np.uint8)
        words = pack_values(values, 4, 32, interleaved=True)
        first, second = _parity_extract(words, 4, 32)
        np.testing.assert_array_equal(first.reshape(4, 4), values[:, :4])
        np.testing.assert_array_equal(second.reshape(4, 4), values[:, 4:])

    @pytest.mark.parametrize("bits,word_bits", [(4, 16), (2, 16), (4, 32), (2, 32)])
    def test_fast_extract_matches_unpack(self, rng, bits, word_bits):
        ratio = packing_ratio(bits, word_bits)
        values = rng.integers(0, 1 << bits, size=(3, ratio), dtype=np.uint8)
        words = pack_values(values, bits, word_bits, interleaved=True)
        first, second = _parity_extract(words, bits, word_bits)
        combined = np.concatenate([first, second], axis=-1).reshape(3, ratio)
        np.testing.assert_array_equal(combined, values)
        np.testing.assert_array_equal(
            combined, unpack_values(words, bits, word_bits, interleaved=True)
        )


def _parity_extract(words, bits, word_bits):
    """The lop3 fast path the interleave exists for: one AND with the
    even-field mask isolates the first half of a word's values, and the same
    mask after a one-field shift isolates the second half, each in order."""
    ratio = packing_ratio(bits, word_bits)
    field = (1 << bits) - 1
    even_mask = sum(field << (2 * i * bits) for i in range(ratio // 2))
    w = np.asarray(words).astype(np.int64)
    halves = []
    for masked in (w & even_mask, (w >> bits) & even_mask):
        fields = [(masked >> (2 * i * bits)) & field for i in range(ratio // 2)]
        halves.append(np.stack(fields, axis=-1).astype(np.uint8))
    return halves[0], halves[1]


class TestStorageMath:
    def test_packed_nbytes(self):
        assert packed_nbytes(128, 4, 16) == 64
        assert packed_nbytes(128, 2, 16) == 32

    def test_packed_nbytes_alignment_enforced(self):
        with pytest.raises(ValueError):
            packed_nbytes(130, 4, 16)


class TestProperties:
    @given(
        bits=st.sampled_from([1, 2, 4, 8]),
        word_bits=st.sampled_from([16, 32]),
        interleaved=st.booleans(),
        n_words=st.integers(1, 32),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, bits, word_bits, interleaved, n_words, seed):
        ratio = packing_ratio(bits, word_bits)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << bits, size=(n_words * ratio,), dtype=np.uint8)
        words = pack_values(values, bits, word_bits, interleaved=interleaved)
        assert words.nbytes * 8 == bits * values.size
        restored = unpack_values(words, bits, word_bits, interleaved=interleaved)
        np.testing.assert_array_equal(restored, values)

    @given(
        bits=st.sampled_from([2, 4]),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_is_injective(self, bits, seed):
        """Distinct code vectors always pack to distinct words."""
        ratio = packing_ratio(bits, 16)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 1 << bits, size=(ratio,), dtype=np.uint8)
        b = a.copy()
        b[rng.integers(ratio)] ^= 1
        wa = pack_values(a, bits, 16, interleaved=True)
        wb = pack_values(b, bits, 16, interleaved=True)
        assert not np.array_equal(wa, wb)
