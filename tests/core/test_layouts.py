"""Fragment layouts and the layout-induction correctness argument (Fig. 3/5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layouts import (
    MMA_M16N8K16_B,
    WARP_LANES,
    FragmentLayout,
    block_fragment_offsets,
    tiled_layout,
)
from repro.core.packing import unpack_values

from tests.reference_cache import block_fragment_pack, block_fragment_unpack, pack_values


def _mma_m16n8k8_b(lane, slot):
    """Operand B of ``mma.m16n8k8`` (K x N = 8 x 8): two slots per lane."""
    return 2 * (lane % 4) + slot % 2, lane // 4


def _mma_m16n8k16_a(lane, slot):
    """Operand A of ``mma.m16n8k16`` (M x K = 16 x 16): eight slots."""
    row = lane // 4 + 8 * ((slot % 4) // 2)
    col = 2 * (lane % 4) + slot % 2 + 8 * (slot // 4)
    return row, col


def _mma_m16n8_c(lane, slot):
    """Accumulator C/D of ``mma.m16n8kX`` (M x N = 16 x 8): four slots."""
    return lane // 4 + 8 * (slot // 2), 2 * (lane % 4) + slot % 2


#: Fragment layouts of other MMA operands (PTX ISA).  No cache packs in
#: them; they are the counterexamples for "store and load must share the
#: instruction".
MMA_M16N8K8_B = FragmentLayout("mma.m16n8k8.B", 8, 8, _mma_m16n8k8_b)
MMA_M16N8K16_A = FragmentLayout("mma.m16n8k16.A", 16, 16, _mma_m16n8k16_a)
MMA_M16N8_C = FragmentLayout("mma.m16n8.C", 16, 8, _mma_m16n8_c)
ALL_LAYOUTS = [MMA_M16N8K16_B, MMA_M16N8K8_B, MMA_M16N8K16_A, MMA_M16N8_C]


def _assert_bijective(layout):
    """Every tile element is owned by exactly one (lane, slot)."""
    owners = set(map(tuple, layout.lane_slot_table().reshape(-1, 2)))
    assert len(owners) == layout.rows * layout.cols


def contiguous_pack(qtile, bits):
    """Pack a quantized tile row-major: the naive layout of Fig. 3b."""
    return pack_values(np.asarray(qtile).reshape(1, -1), bits, 16)


def mismatched_unpack(packed_contiguous, layout, bits):
    """What the MMA sees when a contiguously packed tile is loaded as if it
    were in fragment order: each lane takes the next run of words, unpacks
    them thread-locally and scatters them to its own slots."""
    words = np.asarray(packed_contiguous).reshape(WARP_LANES, -1)
    frag = unpack_values(words, bits, 16)
    table = layout.lane_slot_table()
    tile = np.empty((layout.rows, layout.cols), dtype=frag.dtype)
    tile[table[..., 0], table[..., 1]] = frag
    return tile


class TestFragmentDefinitions:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda l: l.name)
    def test_bijective(self, layout):
        _assert_bijective(layout)

    def test_b_fragment_matches_ptx_documentation(self):
        """Spot-check mma.m16n8k16 B against the PTX ISA mapping (Fig. 3a):
        lane t owns column t//4; slots cover rows 2r, 2r+1, 2r+8, 2r+9."""
        assert MMA_M16N8K16_B.coords(0, 0) == (0, 0)
        assert MMA_M16N8K16_B.coords(0, 1) == (1, 0)
        assert MMA_M16N8K16_B.coords(0, 2) == (8, 0)
        assert MMA_M16N8K16_B.coords(0, 3) == (9, 0)
        assert MMA_M16N8K16_B.coords(5, 0) == (2, 1)  # lane 5: r=1, col 1
        assert MMA_M16N8K16_B.coords(31, 3) == (15, 7)

    def test_values_per_lane(self):
        assert MMA_M16N8K16_B.values_per_lane == 4
        assert MMA_M16N8K8_B.values_per_lane == 2
        assert MMA_M16N8K16_A.values_per_lane == 8
        assert MMA_M16N8_C.values_per_lane == 4

    def test_k16_and_k8_layouts_differ(self):
        """Different instructions -> different fragment maps (Challenge 1)."""
        assert not np.array_equal(
            MMA_M16N8K16_B.lane_slot_table(), MMA_M16N8K8_B.lane_slot_table()
        )

    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda l: l.name)
    def test_single_repeat_tiling_is_identity(self, layout):
        np.testing.assert_array_equal(
            tiled_layout(layout, 1).lane_slot_table(), layout.lane_slot_table()
        )

    def test_same_tile_shape_does_not_mean_same_fragments(self):
        """B of m16n8k16 and the accumulator are both 16 x 8 with four slots
        per lane, yet their lane/slot tables differ: store and load must
        share the instruction, not just the tile (Sec. IV-A(4))."""
        b_table, c_table = MMA_M16N8K16_B.lane_slot_table(), MMA_M16N8_C.lane_slot_table()
        assert b_table.shape == c_table.shape
        assert not np.array_equal(b_table, c_table)


def _gather(layout, tile):
    """What ``ldmatrix`` leaves in registers: lane ``i`` holds row ``i``,
    read through the offsets the cache's fragment-order pack uses."""
    flat, _ = block_fragment_offsets(layout, *np.shape(tile))
    return np.asarray(tile).ravel()[flat].reshape(WARP_LANES, -1)


def _scatter(layout, frag):
    """Registers back to the tile, through the inverse offsets."""
    _, inv = block_fragment_offsets(layout, layout.rows, layout.cols)
    return np.asarray(frag).ravel()[inv].reshape(layout.rows, layout.cols)


class TestGatherScatter:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda l: l.name)
    def test_gather_scatter_round_trip(self, rng, layout):
        tile = rng.standard_normal((layout.rows, layout.cols)).astype(np.float32)
        frag = _gather(layout, tile)
        assert frag.shape == (32, layout.values_per_lane)
        table = layout.lane_slot_table()
        np.testing.assert_array_equal(frag, tile[table[..., 0], table[..., 1]])
        np.testing.assert_array_equal(_scatter(layout, frag), tile)

    def test_gather_shape_checked(self, rng):
        with pytest.raises(ValueError):
            _gather(MMA_M16N8K16_B, rng.standard_normal((8, 8)))

    def test_scatter_shape_checked(self, rng):
        packed = block_fragment_pack(np.zeros((16, 8), np.uint8), MMA_M16N8K16_B, 4)
        with pytest.raises(ValueError):
            block_fragment_unpack(packed, (8, 8), MMA_M16N8K16_B, 4)


class TestTiledLayout:
    def test_doubles_values_per_lane(self):
        tiled = tiled_layout(MMA_M16N8K16_B, 2)
        assert tiled.cols == 16
        assert tiled.values_per_lane == 8
        _assert_bijective(tiled)

    def test_second_tile_offsets_columns(self):
        tiled = tiled_layout(MMA_M16N8K16_B, 2)
        row0, col0 = tiled.coords(0, 0)
        row4, col4 = tiled.coords(0, 4)  # first slot of the second tile
        assert (row4, col4) == (row0, col0 + 8)

    def test_invalid_repeat_rejected(self):
        with pytest.raises(ValueError):
            tiled_layout(MMA_M16N8K16_B, 0)


class TestLayoutInduction:
    """The paper's central correctness claim, demonstrated both ways."""

    @pytest.mark.parametrize("bits", [4, 8])
    def test_induced_pack_unpack_is_identity(self, rng, bits):
        qtile = rng.integers(0, 1 << bits, size=(16, 8), dtype=np.uint8)
        packed = block_fragment_pack(qtile, MMA_M16N8K16_B, bits)
        restored = block_fragment_unpack(packed, (16, 8), MMA_M16N8K16_B, bits)
        np.testing.assert_array_equal(restored, qtile)

    def test_int2_needs_repeat_tiling(self, rng):
        """A lane of one 16 x 8 tile holds 4 values; a 16-bit INT2 word needs 8."""
        qtile = rng.integers(0, 4, size=(16, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match="packing ratio"):
            block_fragment_pack(qtile, MMA_M16N8K16_B, bits=2)

    def test_int2_works_with_repeat_tiling(self, rng):
        layout = tiled_layout(MMA_M16N8K16_B, 2)
        qtile = rng.integers(0, 4, size=(16, 16), dtype=np.uint8)
        packed = block_fragment_pack(qtile, layout, bits=2)
        np.testing.assert_array_equal(block_fragment_unpack(packed, (16, 16), layout, 2), qtile)

    def test_contiguous_packing_is_invalid_for_mma(self, rng):
        """Fig. 3b: a row-major packed tile lands on the wrong lanes."""
        qtile = rng.integers(0, 16, size=(16, 8), dtype=np.uint8)
        packed = contiguous_pack(qtile, bits=4)
        seen_by_mma = mismatched_unpack(packed, MMA_M16N8K16_B, bits=4)
        assert not np.array_equal(seen_by_mma, qtile)

    def test_mismatched_unpack_is_a_permutation(self, rng):
        """The corruption is a value permutation — nothing is lost, it is
        all in the wrong places (which is why results are silently wrong
        rather than obviously broken)."""
        qtile = rng.integers(0, 16, size=(16, 8), dtype=np.uint8)
        packed = contiguous_pack(qtile, bits=4)
        seen = mismatched_unpack(packed, MMA_M16N8K16_B, bits=4)
        assert sorted(seen.ravel()) == sorted(qtile.ravel())

    def test_induced_pack_word_layout_is_lane_major(self, rng):
        qtile = rng.integers(0, 16, size=(16, 8), dtype=np.uint8)
        packed = block_fragment_pack(qtile, MMA_M16N8K16_B, 4)
        assert packed.shape == (1, 1, 32, 1)  # one tile, one 16-bit word per lane


class TestBlockPacking:
    @pytest.mark.parametrize("bits,repeat", [(4, 1), (2, 2), (8, 1)])
    def test_block_round_trip(self, rng, bits, repeat):
        layout = tiled_layout(MMA_M16N8K16_B, repeat) if repeat > 1 else MMA_M16N8K16_B
        block = rng.integers(0, 1 << bits, size=(128, 64), dtype=np.uint8)
        packed = block_fragment_pack(block, layout, bits)
        restored = block_fragment_unpack(packed, (128, 64), layout, bits)
        np.testing.assert_array_equal(restored, block)

    def test_block_must_tile_evenly(self, rng):
        block = rng.integers(0, 16, size=(100, 64), dtype=np.uint8)
        with pytest.raises(ValueError, match="multiple"):
            block_fragment_pack(block, MMA_M16N8K16_B, 4)

    def test_packed_bits_conserved(self, rng):
        block = rng.integers(0, 16, size=(64, 32), dtype=np.uint8)
        packed = block_fragment_pack(block, MMA_M16N8K16_B, 4)
        assert packed.nbytes * 8 == block.size * 4


class TestProperties:
    @given(
        bits=st.sampled_from([4, 8]),
        tiles_r=st.integers(1, 4),
        tiles_c=st.integers(1, 4),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_round_trip_property(self, bits, tiles_r, tiles_c, seed):
        rng = np.random.default_rng(seed)
        shape = (16 * tiles_r, 8 * tiles_c)
        block = rng.integers(0, 1 << bits, size=shape, dtype=np.uint8)
        packed = block_fragment_pack(block, MMA_M16N8K16_B, bits)
        restored = block_fragment_unpack(packed, shape, MMA_M16N8K16_B, bits)
        np.testing.assert_array_equal(restored, block)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_gather_is_a_permutation(self, seed):
        rng = np.random.default_rng(seed)
        tile = rng.permutation(16 * 8).reshape(16, 8)
        frag = _gather(MMA_M16N8K16_B, tile)
        assert sorted(frag.ravel()) == list(range(128))
