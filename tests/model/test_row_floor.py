"""The row floor: a projection row's bits never depend on its batch.

Every projection in :class:`~repro.model.transformer.TinyTransformer` goes
through ``_matmul``, one GEMM zero-padded to at least ``_ROW_FLOOR`` rows.
That a decode step over many sequences equals one step per sequence bit
for bit rests on a BLAS property: from the floor up, row r of the GEMM has
the same bits whatever M is, wherever r sits and whatever the other rows
hold.  This file pins that property on every fused weight shape the
executed workloads use, so a BLAS upgrade that breaks it fails here
instead of every downstream digest drifting silently.
"""

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
ROW_COUNTS = list(range(1, 65)) + [128, 640]


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
        row = rng.standard_normal(w.shape[0]).astype(np.float32)
        alone = _matmul(row[None], w)[0]
        for m in ROW_COUNTS:
            x = rng.standard_normal((m, w.shape[0])).astype(np.float32)
            for offset in sorted({0, m // 2, m - 1}):
                x[offset] = row
                if _matmul(x, w)[offset].tobytes() != alone.tobytes():
                    mismatches.append((name, m, offset))
    assert not mismatches, (
        f"projection rows change bits with the batch at (weight, M, offset) "
        f"{mismatches[:8]} ({len(mismatches)} total); BLAS: {_blas()}"
    )
