"""The row floor: a projection row's bits never depend on its batch.

Every projection in :class:`~repro.model.transformer.TinyTransformer` goes
through ``_matmul``: one GEMM over an output-major ``(out, in)`` weight,
zero-padded to at least ``_ROW_FLOOR`` rows and more than 1200 outputs.
That a decode step over many sequences equals one step per sequence bit
for bit, and that a scheduler step's prefill chunks can share its decode
rows' forward, rest on a BLAS property: from the floor up, row r of the
GEMM has the same bits whatever M is, wherever r sits and whatever the
other rows hold.  The recorded digests also rest on those bits equalling the
``(in, out)`` GEMM ``rows @ w.T`` they were cut with.  This file pins both
properties on every fused weight shape the executed workloads use, so a
BLAS upgrade that breaks them fails here instead of every downstream
digest drifting silently.
"""

import math

import numpy as np
import pytest

from repro.model.config import TINY
from repro.model.transformer import _ROW_FLOOR, TinyTransformer, _matmul

#: ``tiny`` and the bench-gqa geometry the e2e benchmark executes.
GEOMETRIES = {
    "tiny": dict(hq=TINY.hq, hkv=TINY.hkv, head_dim=TINY.head_dim, hidden=TINY.hidden,
                 intermediate=TINY.intermediate),
    "bench-gqa": dict(hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024),
}
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


def test_floor_is_at_least_four():
    assert _ROW_FLOOR >= 4


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_row_bits_independent_of_batch(geometry):
    layer = TinyTransformer(n_layers=1, seed=0, **GEOMETRIES[geometry]).layers[0]
    rng = np.random.default_rng(5)
    mismatches = []
    for name in ("wqkv", "wo", "w_gate_up", "w_down"):
        w = getattr(layer, name)
        row = rng.standard_normal(w.shape[1]).astype(np.float32)
        alone = _matmul(row[None], w)[0]
        for m in ROW_COUNTS:
            x = rng.standard_normal((m, w.shape[1])).astype(np.float32)
            for offset in sorted({0, m // 2, m - 1}):
                x[offset] = row
                if _matmul(x, w)[offset].tobytes() != alone.tobytes():
                    mismatches.append((name, m, offset))
    assert not mismatches, (
        f"projection rows change bits with the batch at (weight, M, offset) "
        f"{mismatches[:8]} ({len(mismatches)} total); BLAS: {_blas()}"
    )


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_weights_are_output_major_copies_of_the_input_major_draw(geometry):
    """C-contiguous ``(out, in)``, holding the ``(in, out)`` draws of the same RNG order."""
    dims = GEOMETRIES[geometry]
    hidden, inter = dims["hidden"], dims["intermediate"]
    kv_dim = dims["hkv"] * dims["head_dim"]
    layer = TinyTransformer(n_layers=1, seed=0, **dims).layers[0]
    rng = np.random.default_rng(0)
    scale = 1.0 / math.sqrt(hidden)

    def draw(*shapes):
        return np.concatenate(
            [(rng.standard_normal(s) * scale).astype(np.float32) for s in shapes], axis=1
        )

    # Draw order: wq, wk, wv, wo, gate, up, down.
    drawn = {
        "wqkv": draw((hidden, hidden), (hidden, kv_dim), (hidden, kv_dim)),
        "wo": draw((hidden, hidden)),
        "w_gate_up": draw((hidden, inter), (hidden, inter)),
        "w_down": draw((inter, hidden)),
    }
    for name, w_in_out in drawn.items():
        w = getattr(layer, name)
        assert w.flags.c_contiguous, name
        assert w.shape == w_in_out.shape[::-1], name
        assert w.tobytes() == np.ascontiguousarray(w_in_out.T).tobytes(), name


def _input_major_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ``(in, out)`` GEMM ``rows @ w`` padded to 4 rows: the form every digest was cut with."""
    m = x.shape[0]
    rows = np.zeros((max(m, 4), x.shape[1]), np.float32)
    rows[:m] = x
    return (rows @ w)[:m]


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_output_major_gemm_matches_input_major_bits(geometry):
    layer = TinyTransformer(n_layers=1, seed=0, **GEOMETRIES[geometry]).layers[0]
    rng = np.random.default_rng(7)
    mismatches = []
    for name in ("wqkv", "wo", "w_gate_up", "w_down"):
        w = getattr(layer, name)
        w_in_out = np.ascontiguousarray(w.T)
        for m in ROW_COUNTS:
            x = rng.standard_normal((m, w.shape[1])).astype(np.float32)
            if _matmul(x, w).tobytes() != _input_major_matmul(x, w_in_out).tobytes():
                mismatches.append((name, m))
    assert not mismatches, (
        f"output-major projections differ from the (in, out) GEMM at (weight, M) "
        f"{mismatches[:8]} ({len(mismatches)} total); BLAS: {_blas()}"
    )
