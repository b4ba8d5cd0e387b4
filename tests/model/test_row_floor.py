"""Exact W8A8 projections: a projection row's bits depend on nothing but the row.

Every projection in :class:`~repro.model.transformer.TinyTransformer` goes
through ``_matmul``.  Its weights are int8 codes times one power-of-two
step, each activation row is quantized to int8 codes with one scale, and
the GEMM sums integers, which float32 holds exactly up to ``_EXACT_K``
(float64 past it).  So row r of the product has the same bits whatever M
is, wherever r sits, whatever the other rows hold, however the GEMM is
tiled and whichever BLAS kernel set runs it.  That a decode step over many
sequences equals one step per sequence bit for bit, and that a scheduler
step's prefill chunks can share its decode rows' forward, rest on this.
This file holds ``_matmul`` to an int64 product on every fused weight shape
the executed workloads use, on both its tiled and its blocked path, and
pins the tiling itself.
"""

import math

import numpy as np
import pytest

from repro.core.softmax import SMALL_GEMM_MNK, SMALL_GEMM_OUTPUTS
from repro.model.config import TINY
from repro.model.transformer import _EXACT_K, _MIN_TILE, TinyTransformer, _matmul

#: ``tiny`` and the bench-gqa geometry the e2e benchmark executes.
GEOMETRIES = {
    "tiny": dict(hq=TINY.hq, hkv=TINY.hkv, head_dim=TINY.head_dim, hidden=TINY.hidden,
                 intermediate=TINY.intermediate),
    "bench-gqa": dict(hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024),
}
WEIGHTS = ("wqkv", "wo", "w_gate_up", "w_down")
#: Every M up to 200, then 256 and 640.  That covers every decode batch and
#: every merged forward the executed workloads and tier-1's executed runs
#: reach: a whole 128-token prompt plus up to 63 consumed decode tokens on
#: tiered_chaos is any M from 129 to 191, a step's prefill chunks plus its
#: decode rows reach 132 on prefill_shared, and every forward of tier-1's
#: executed runs has at most 200 rows but for whole 256-token prompts.
ROW_COUNTS = list(range(1, 201)) + [256, 640]


def _blas() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):  # NumPy < 1.26 has no dict mode
        return "unknown BLAS (numpy.show_config() has no dict mode)"


def _step(hidden: int) -> float:
    """The weights' power-of-two step: ``127 * step`` covers 5 sigma."""
    return 2.0 ** math.ceil(math.log2(5 / math.sqrt(hidden) / 127))


def _reference(x: np.ndarray, codes_w: np.ndarray, step: float) -> np.ndarray:
    """``_matmul``'s result from the int64 product of the codes.

    Rescaled in float64, where ``int * step * scale`` is exact (at most 25
    integer bits times a float32 scale), then rounded once to float32.
    """
    scale = np.abs(x).max(axis=1, keepdims=True) / np.float32(127)
    codes_x = np.rint(x / np.maximum(scale, np.finfo(np.float32).tiny))
    acc = codes_x.astype(np.int64) @ codes_w.T.astype(np.int64)
    return (acc.astype(np.float64) * step * scale.astype(np.float64)).astype(np.float32)


def _layer(geometry):
    return TinyTransformer(n_layers=1, seed=0, **GEOMETRIES[geometry]).layers[0]


def _bound(m: int, k: int) -> int:
    return min(SMALL_GEMM_OUTPUTS // m, SMALL_GEMM_MNK // (m * k))


def _gemm_calls(monkeypatch, x, w):
    """``_matmul(x, w)`` and the ``(first row, rows)`` of each weight tile it multiplies."""
    tiles, matmul = [], np.matmul

    def logged(a, b, out):
        assert b.shape[1] == x.shape[0] and out.shape == (a.shape[0], x.shape[0])
        tiles.append((sum(rows for _, rows in tiles), a.shape[0]))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", logged)
    got = _matmul(x, w)
    monkeypatch.undo()
    return got, tiles


class TestExactProduct:
    """``_matmul`` equals the int64 product of the codes, bit for bit."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_rows_equal_the_int64_product_at_every_m_and_offset(self, geometry):
        layer, step = _layer(geometry), _step(GEOMETRIES[geometry]["hidden"])
        rng = np.random.default_rng(5)
        mismatches, paths = [], set()
        for name in WEIGHTS:
            w = getattr(layer, name)
            codes_w = w / np.float32(step)
            row = rng.standard_normal(w.shape[1]).astype(np.float32)
            want = _reference(row[None], codes_w, step)[0]
            for m in ROW_COUNTS:
                x = rng.standard_normal((m, w.shape[1])).astype(np.float32)
                offsets = sorted({0, m // 2, m - 1})
                x[offsets] = row
                got = _matmul(x, w)
                assert got.shape == (m, w.shape[0]) and got.flags.c_contiguous
                paths.add(_bound(m, w.shape[1]) >= _MIN_TILE)
                mismatches += [(name, m, o) for o in offsets if got[o].tobytes() != want.tobytes()]
        assert paths == {True, False}  # both the tiled and the blocked path ran
        assert not mismatches, (
            f"projection rows differ from the int64 product at (weight, M, offset) "
            f"{mismatches[:8]} ({len(mismatches)} total); BLAS: {_blas()}"
        )

    @pytest.mark.parametrize("k", [512, _EXACT_K, _EXACT_K + 1, 2048])
    @pytest.mark.parametrize("m", [1, 4, 18, 19, 64])
    def test_every_row_is_exact_on_both_sides_of_the_float64_bound(self, m, k):
        """Row 0 (codes all 127) against 48 weight rows of codes in
        [100, 127]: at K = 2048 each sum passes ``2**24``, where a float32
        GEMM would round it.  Row ``m // 2`` is all zero and maps to zeros."""
        rng = np.random.default_rng(m * k)
        step = 2.0**-9
        codes_w = rng.integers(-127, 128, (96, k)).astype(np.float32)
        codes_w[:48] = rng.integers(100, 128, (48, k))
        x = rng.standard_normal((m, k)).astype(np.float32)
        x[0] = 1
        x[m // 2] = 0
        got = _matmul(x, codes_w * np.float32(step))
        assert got.dtype == np.float32
        assert got.tobytes() == _reference(x, codes_w, step).tobytes()
        assert not np.any(got[m // 2])


class TestTiling:
    """Decode-sized GEMMs run in the largest tiles that fit the small kernel."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("m", [1, 2, 4, 15, 16, 18, 64, 200])
    def test_tiles_are_the_largest_that_fit_or_one_blocked_call(self, monkeypatch, geometry, m):
        layer = _layer(geometry)
        for name in WEIGHTS:
            w = getattr(layer, name)
            out, k = w.shape
            x = np.random.default_rng(m).standard_normal((m, k)).astype(np.float32)
            got, tiles = _gemm_calls(monkeypatch, x, w)
            assert got.tobytes() == _matmul(x, w).tobytes()
            assert tiles[-1][0] + tiles[-1][1] == out
            bound = _bound(m, k)
            if bound < _MIN_TILE:
                assert tiles == [(0, out)], name
                continue
            assert all(rows == bound for _, rows in tiles[:-1]), name
            assert 0 < tiles[-1][1] <= bound
            assert bound * m <= SMALL_GEMM_OUTPUTS and bound * m * k <= SMALL_GEMM_MNK
            grown = bound + 1
            assert grown * m > SMALL_GEMM_OUTPUTS or grown * m * k > SMALL_GEMM_MNK

    def test_bench_gqa_decode_shapes(self, monkeypatch):
        """K = 512: four decode rows take 300-row tiles, 15 take 80, 16 go blocked."""
        w = _layer("bench-gqa").w_gate_up
        for m, tiles in ((4, [(0, 300), (300, 300)]), (15, [(0, 80), (80, 80)])):
            x = np.ones((m, 512), np.float32)
            assert _gemm_calls(monkeypatch, x, w)[1][:2] == tiles
        assert _gemm_calls(monkeypatch, np.ones((16, 512), np.float32), w)[1] == [(0, 2048)]


class _ScaledDraws:
    """A generator whose normal draws are ``factor`` times another's."""

    def __init__(self, rng, factor):
        self.rng, self.factor = rng, factor

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape) * self.factor


@pytest.mark.parametrize("factor", [1, 8], ids=["draw", "heavy-tailed-draw"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_weights_are_output_major_codes_of_the_input_major_draw(monkeypatch, geometry, factor):
    """C-contiguous ``(out, in)`` int8 codes times one power-of-two step,
    rounded from the ``(in, out)`` draws of the same RNG order.

    ``factor`` 8 scales every draw so that many codes saturate: they must
    clip to +-127.
    """
    dims = GEOMETRIES[geometry]
    hidden, inter = dims["hidden"], dims["intermediate"]
    kv_dim = dims["hkv"] * dims["head_dim"]
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _ScaledDraws(default_rng(seed), factor)
    )
    layer = TinyTransformer(n_layers=1, seed=0, **dims).layers[0]
    monkeypatch.undo()
    rng = default_rng(0)
    sigma, step = 1.0 / math.sqrt(hidden), _step(hidden)

    def draw(*shapes):
        z = np.concatenate([rng.standard_normal(s) * factor for s in shapes], axis=1)
        return np.clip(np.rint(z * (sigma / step)), -127, 127)

    # Draw order: wq, wk, wv, wo, gate, up, down.
    drawn = {
        "wqkv": draw((hidden, hidden), (hidden, kv_dim), (hidden, kv_dim)),
        "wo": draw((hidden, hidden)),
        "w_gate_up": draw((hidden, inter), (hidden, inter)),
        "w_down": draw((inter, hidden)),
    }
    for name, codes_in_out in drawn.items():
        w = getattr(layer, name)
        assert w.flags.c_contiguous and w.dtype == np.float32, name
        assert w.shape == codes_in_out.shape[::-1], name
        codes = w / np.float32(step)
        assert np.abs(codes).max() <= 127, name
        assert (np.abs(codes) == 127).any() == (factor > 1), name
        assert codes.tobytes() == np.ascontiguousarray(codes_in_out.T, np.float32).tobytes(), name
