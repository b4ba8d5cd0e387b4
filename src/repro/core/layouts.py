"""Tensor-Core fragment layouts and BitDecoding's layout induction.

A Tensor-Core ``mma`` instruction reads its operands from registers in a
rigid, *interleaved* thread-to-value mapping (the "fragment layout",
Fig. 3a).  ``ldmatrix`` is the load instruction that deposits a shared-memory
tile into exactly that mapping.  BitDecoding's key insight (Sec. IV-A(1)) is:

    if each thread quantizes and packs *the values it already holds in its
    fragment*, the packed low-bit buffer implicitly preserves the fragment
    order — so when the Packing Kernel later loads the packed words with the
    same ``ldmatrix`` configuration and unpacks thread-locally, every value
    is already in the register slot the ``mma`` expects.  No global
    reshuffle ever happens.

Packing the quantized tile *contiguously* instead (row-major, Fig. 3b)
breaks this: after unpacking, values sit in the wrong lanes and the MMA
computes garbage (``tests/core/test_layouts.py`` builds that
counterexample).  This module implements the fragment-order path the caches
run.  Store and load must share one ``ldmatrix``/``mma`` variant
(Sec. IV-A(4)): layouts agree exactly when their lane/slot tables do.

Layouts are modelled as explicit permutations between tile coordinates
``(row, col)`` and fragment coordinates ``(lane, slot)`` for a 32-thread
warp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np


WARP_LANES = 32


@dataclass(frozen=True)
class FragmentLayout:
    """A warp-level fragment layout for one MMA operand tile.

    ``rows`` x ``cols`` values are distributed over 32 lanes with
    ``values_per_lane`` register slots each.  ``coords`` maps
    ``(lane, slot) -> (row, col)``; the inverse is derived and cached.
    """

    name: str
    rows: int
    cols: int
    coords: Callable[[int, int], Tuple[int, int]]

    def __post_init__(self) -> None:
        if (self.rows * self.cols) % WARP_LANES != 0:
            raise ValueError("tile size must be divisible by the warp width")

    @property
    def values_per_lane(self) -> int:
        return (self.rows * self.cols) // WARP_LANES

    def lane_slot_table(self) -> np.ndarray:
        """``(32, values_per_lane, 2)`` array of (row, col) per register slot."""
        table = np.empty((WARP_LANES, self.values_per_lane, 2), dtype=np.int64)
        for lane in range(WARP_LANES):
            for slot in range(self.values_per_lane):
                row, col = self.coords(lane, slot)
                if not (0 <= row < self.rows and 0 <= col < self.cols):
                    raise ValueError(
                        f"{self.name}: (lane {lane}, slot {slot}) maps to "
                        f"out-of-tile coordinate ({row}, {col})"
                    )
                table[lane, slot] = (row, col)
        return table


# ---------------------------------------------------------------------------
# Concrete layouts (PTX ISA fragment definitions)
# ---------------------------------------------------------------------------


def _mma_m16n8k16_b(lane: int, slot: int) -> Tuple[int, int]:
    """Operand B of ``mma.m16n8k16`` (K x N = 16 x 8, Fig. 3a).

    Lane ``t`` owns column ``t // 4``; its four slots cover rows
    ``2r, 2r+1, 2r+8, 2r+9`` with ``r = t % 4`` — the interleaved split
    between the two K-halves that makes contiguous packing invalid.
    """
    group = lane // 4
    r = lane % 4
    row = 2 * r + (slot % 2) + 8 * (slot // 2)
    return row, group


MMA_M16N8K16_B = FragmentLayout("mma.m16n8k16.B", 16, 8, _mma_m16n8k16_b)


def tiled_layout(base: FragmentLayout, n_repeat: int) -> FragmentLayout:
    """Repeat a fragment layout ``n_repeat`` times along the N dimension.

    Fig. 3a shows ``mma.m16n8k16`` "with repeat tiling along the N
    dimension": a warp issues the instruction on ``n_repeat`` adjacent
    8-column tiles, so each lane accumulates ``n_repeat x values_per_lane``
    register slots.  This is how a lane comes to hold enough values to fill
    whole packed words at low bit widths (INT2 needs 8 values per 16-bit
    word; one 16 x 8 tile only gives a lane 4).
    """
    if n_repeat <= 0:
        raise ValueError("n_repeat must be positive")
    base_vpl = base.values_per_lane

    def coords(lane: int, slot: int) -> Tuple[int, int]:
        tile_idx, base_slot = divmod(slot, base_vpl)
        row, col = base.coords(lane, base_slot)
        return row, col + tile_idx * base.cols

    return FragmentLayout(
        name=f"{base.name}.x{n_repeat}",
        rows=base.rows,
        cols=base.cols * n_repeat,
        coords=coords,
    )


# ---------------------------------------------------------------------------
# Layout induction (Fig. 5): pack a whole block in fragment order
# ---------------------------------------------------------------------------

_BLOCK_INDEX_CACHE: Dict[Tuple[str, int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _block_fragment_indices(
    layout: FragmentLayout, n_rows: int, n_cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays mapping a block to warp-fragment storage order.

    The block is covered by a grid of ``layout.rows x layout.cols`` tiles;
    storage order is ``[tile_row, tile_col, lane, slot]`` — each lane's
    slots are contiguous, so thread-local packing produces contiguous words.
    Returns ``(row_idx, col_idx)`` of shape
    ``(tiles_r, tiles_c, 32, values_per_lane)``; cached per layout/shape.
    """
    key = (layout.name, n_rows, n_cols)
    if key in _BLOCK_INDEX_CACHE:
        return _BLOCK_INDEX_CACHE[key]
    if n_rows % layout.rows or n_cols % layout.cols:
        raise ValueError(
            f"block ({n_rows} x {n_cols}) is not a multiple of the "
            f"{layout.name} tile ({layout.rows} x {layout.cols})"
        )
    table = layout.lane_slot_table()  # (32, vpl, 2)
    tiles_r, tiles_c = n_rows // layout.rows, n_cols // layout.cols
    tr = np.arange(tiles_r)[:, None, None, None]
    tc = np.arange(tiles_c)[None, :, None, None]
    row_idx = tr * layout.rows + table[None, None, :, :, 0]
    col_idx = tc * layout.cols + table[None, None, :, :, 1]
    full = (tiles_r, tiles_c, WARP_LANES, layout.values_per_lane)
    row_idx = np.broadcast_to(row_idx, full).copy()
    col_idx = np.broadcast_to(col_idx, full).copy()
    _BLOCK_INDEX_CACHE[key] = (row_idx, col_idx)
    return row_idx, col_idx


_BLOCK_OFFSET_CACHE: Dict[Tuple[str, int, int, bool], Tuple[np.ndarray, np.ndarray]] = {}


def block_fragment_offsets(
    layout: FragmentLayout, n_rows: int, n_cols: int, transposed: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened gather/scatter offsets between a block and fragment order.

    ``flat[slot]`` is the offset of fragment slot ``slot`` (storage order
    ``[tile_row, tile_col, lane, slot]``, raveled) into the C-contiguous
    block — of shape ``(n_rows, n_cols)``, or ``(n_cols, n_rows)`` when
    ``transposed`` (the K operand's case: indices address the packing
    orientation while the codes live transposed).  ``inv`` is the inverse
    permutation, turning the scatter back into a gather: ``np.take`` with
    these is far faster than advanced indexing on 10^8-element caches.
    """
    key = (layout.name, n_rows, n_cols, transposed)
    if key in _BLOCK_OFFSET_CACHE:
        return _BLOCK_OFFSET_CACHE[key]
    row_idx, col_idx = _block_fragment_indices(layout, n_rows, n_cols)
    if transposed:
        flat = (col_idx * n_rows + row_idx).ravel()
    else:
        flat = (row_idx * n_cols + col_idx).ravel()
    inv = np.empty_like(flat)
    inv[flat] = np.arange(flat.size, dtype=flat.dtype)
    _BLOCK_OFFSET_CACHE[key] = (flat, inv)
    return flat, inv
