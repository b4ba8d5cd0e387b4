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
the executed workloads use, on both its tiled and its blocked path, pins
the tiling itself, and pins the weight draw: output-major row blocks of
uniform int16 codes, bounded by 127, at variance ``1 / hidden``.
"""

import math

import numpy as np
import pytest

from repro.core.softmax import SMALL_GEMM_MNK, SMALL_GEMM_OUTPUTS
from repro.model.config import TINY
from repro.model.transformer import (
    _DRAW_VALUES,
    _EXACT_K,
    _MIN_TILE,
    TinyTransformer,
    _matmul,
)

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
    """The weights' power-of-two step: ``127 * step`` covers the uniform
    bound ``sqrt(3 / hidden)`` (variance ``1 / hidden``)."""
    return 2.0 ** math.ceil(math.log2(math.sqrt(3 / hidden) / 127))


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


    def test_no_rows_is_an_empty_product(self):
        w = _layer("tiny").wqkv
        got = _matmul(np.empty((0, w.shape[1]), np.float32), w)
        assert got.shape == (0, w.shape[0]) and got.dtype == np.float32


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


class _LoggedDraws:
    """A generator that logs each ``integers`` call as ``(low, high, size, dtype)``."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def integers(self, low, high, size, dtype):
        self.calls.append((low, high, size, np.dtype(dtype)))
        return self.rng.integers(low, high, size, dtype=dtype)


def _fused_shapes(dims):
    """Each fused weight's ``(out, in)``, in draw order: wq, wk, wv, wo, gate, up, down."""
    hidden, inter = dims["hidden"], dims["intermediate"]
    kv_dim = dims["hkv"] * dims["head_dim"]
    return {
        "wqkv": (hidden + 2 * kv_dim, hidden),
        "wo": (hidden, hidden),
        "w_gate_up": (2 * inter, hidden),
        "w_down": (hidden, inter),
    }


def _code_bound(hidden: int) -> int:
    """The largest code: ``a * step`` is the uniform bound ``sqrt(3 / hidden)``, floored."""
    return math.floor(math.sqrt(3 / hidden) / _step(hidden))


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_weights_are_output_major_codes_of_the_drawn_rows(monkeypatch, geometry):
    """C-contiguous float32 ``(out, in)`` weights, each drawn row block by
    row block as uniform int16 codes in ``[-a, a]`` and scaled by the step.

    Pins the call sequence (``_DRAW_VALUES // in`` rows per block, in draw
    order), then replays it on a fresh generator of the same seed.
    """
    dims = GEOMETRIES[geometry]
    default_rng, logged = np.random.default_rng, []

    def logged_rng(seed):
        logged.append(_LoggedDraws(default_rng(seed)))
        return logged[-1]

    monkeypatch.setattr(np.random, "default_rng", logged_rng)
    layer = TinyTransformer(n_layers=1, seed=0, **dims).layers[0]
    monkeypatch.undo()
    a, step = _code_bound(dims["hidden"]), _step(dims["hidden"])
    expected = {
        name: [
            (-a, a + 1, (min(_DRAW_VALUES // n_in, n_out - o), n_in), np.dtype(np.int16))
            for o in range(0, n_out, _DRAW_VALUES // n_in)
        ]
        for name, (n_out, n_in) in _fused_shapes(dims).items()
    }
    assert len(logged) == 1 and logged[0].calls == [c for calls in expected.values() for c in calls]
    rng = default_rng(0)
    for name, calls in expected.items():
        w = getattr(layer, name)
        assert w.flags.c_contiguous and w.dtype == np.float32, name
        codes = np.concatenate([rng.integers(lo, hi, size, dtype=dt) for lo, hi, size, dt in calls])
        assert w.shape == codes.shape, name
        assert w.tobytes() == (codes * np.float32(step)).tobytes(), name


def _property_dims(hidden: int) -> dict:
    """One layer at ``hidden``, with the narrowest K/V and MLP that keep
    ``hq * head_dim == hidden``: hidden 4096 still holds 35 M weights."""
    head_dim = min(64, hidden // 2)
    return dict(hq=hidden // head_dim, hkv=1, head_dim=head_dim, hidden=hidden, intermediate=64)


def _weights(hidden: int, seed: int) -> dict:
    model = TinyTransformer(n_layers=1, seed=seed, **_property_dims(hidden))
    return {name: getattr(model.layers[0], name) for name in WEIGHTS}


@pytest.mark.parametrize("hidden", [16, 64, 512, 4096])
def test_weights_are_bounded_codes_of_a_power_of_two_step(hidden):
    """Every weight is an integer code times one power-of-two step, with
    ``|code| <= a <= 127`` (the bound is reached), and the draw is a
    function of the seed.  Past hidden 16 a model holds enough weights for
    their sample variance to sit within 5 % of ``1 / hidden``."""
    weights = _weights(hidden, seed=0)
    step = min(np.abs(w[w != 0]).min() for w in weights.values())
    assert math.frexp(step)[0] == 0.5, step  # a power of two
    a = _code_bound(hidden)
    assert step == _step(hidden) and 63 <= a <= 127
    total = squares = count = 0
    for name, w in weights.items():
        codes = w / np.float32(step)
        assert np.array_equal(codes, np.rint(codes)), name
        assert np.abs(codes).max() <= a, name
        total += float(w.sum(dtype=np.float64))
        squares += float(np.dot(w.ravel(), w.ravel()))
        count += w.size
    assert max(float(np.abs(w).max()) for w in weights.values()) == a * step
    if hidden > 16:
        variance = squares / count - (total / count) ** 2
        assert abs(variance * hidden - 1) < 0.05, variance * hidden
    digest = {name: hash(w.tobytes()) for name, w in weights.items()}
    del weights
    for name, w in _weights(hidden, seed=0).items():
        assert hash(w.tobytes()) == digest[name], name
    for name, w in _weights(hidden, seed=1).items():
        assert hash(w.tobytes()) != digest[name], name
