"""The decode GEMMs, tiled for the host's small-matrix kernel.

Every decode score GEMM goes through :func:`repro.core.softmax.qk_scores`,
which computes ``K_tile @ Q^T`` over KV-row tiles of at most
``SMALL_GEMM_OUTPUTS // M`` rows and writes each into its columns of one
C-contiguous ``(..., M, L)`` array; the fused walk's PV product goes
through :func:`repro.core.softmax.pv_product`, a left-to-right sum over KV
spans of at most ``SMALL_GEMM_MNK // (M * d)`` tokens.  This file pins

- the tiling (:class:`TestSmallKernelBounds`): every call inside both
  bounds, tiles as large as the bounds allow, walked left to right.  It
  reads no BLAS bits, so it holds on every kernel set;
- the BLAS property the tiles rest on (:class:`TestBlasProperty`): each
  tile's scores are bitwise those of ``q @ k_tile^T``, so a range that
  fits one tile (every residual, every ``tile_n`` tile) scores exactly as
  the textbook formula, and a score's bits do not depend on the tile
  around it, so the fused walk and the seed walk's ``tile_n``-wide calls
  share every score.  Both hold on OpenBLAS's SkylakeX and Sandybridge
  kernel sets (CI's test job runs Sandybridge).  The first fails under
  Haswell and Prescott, as the whole-range form did before the tiling;
  the second holds under Prescott and fails under Haswell.  If a BLAS
  upgrade breaks them, they fail here, naming the BLAS, before the
  downstream digests drift.  A whole range past one tile is *not*
  bitwise ``q @ k^T`` (the blocked kernel sums in another order), and no
  test asks it to be;
- end to end (:class:`TestDecodeBitIdentity`): decode outputs are
  bit-identical to the ``q @ k^T`` formula patched in where each module
  looks ``qk_scores`` up wherever the walk's score ranges fit one tile,
  and the 4K-context fused walks stay within ``FUSED_NUMERICS_TOLERANCE``
  of a walk kept in ``tests/reference_cache.py``: the integer walk of the
  one-GEMM walk it replaced, the FP4 walk of the seed per-tile walk
  (:class:`TestTiledFusedWalk` sweeps both over configs and lengths and
  says why FP4 is not held to the one-GEMM walk).
"""

import math
import sys

import numpy as np
import pytest

from repro.attn.paged import PagedBitBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import FUSED_NUMERICS_TOLERANCE, run_numeric
from repro.core.softmax import SMALL_GEMM_MNK, SMALL_GEMM_OUTPUTS, pv_product, qk_scores
from tests.attn.test_grouped_decode import _ragged_batch
from tests.core.test_vectorized_cache import _relative_gap
from tests.model.test_row_floor import _blas
from tests.reference_cache import one_gemm_run_fused, seed_run_numeric


def _qk_reference(q, k, scale):
    return (q @ np.swapaxes(k, -1, -2)) * scale


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class _RowLog(np.ndarray):
    """An array that logs ``(first row, rows)`` of every slice taken from it."""

    def __getitem__(self, key):
        out = super().__getitem__(key)
        offset = out.__array_interface__["data"][0] - self.__array_interface__["data"][0]
        self.log.append((offset // self.strides[-2], out.shape[-2]))
        return out


def _logged(a):
    a = a.view(_RowLog)
    a.log = []
    return a


def _qk_tiles(q, k, scale=1.0):
    """``qk_scores(q, k)`` and the ``(first row, rows)`` of each K tile
    (one whole-range tile when ``k`` is used unsliced)."""
    k = _logged(k)
    return np.asarray(qk_scores(q, k, scale)), k.log or [(0, k.shape[-2])]


def _pv_spans(p, v):
    """``pv_product(p, v)`` and the ``(first token, tokens)`` of each V span
    (one whole-range span when ``v`` is used unsliced)."""
    v = _logged(v)
    return np.asarray(pv_product(p, v)), v.log or [(0, v.shape[-2])]


def _assert_left_to_right(pieces, length):
    starts = [0]
    for first, n in pieces:
        assert first == starts[-1] and n > 0
        starts.append(first + n)
    assert starts[-1] == length


class TestSmallKernelBounds:
    """Each decode GEMM call fits OpenBLAS's no-pack small-matrix kernel."""

    @pytest.mark.parametrize("d", [16, 64, 128, 256])
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 32])
    def test_qk_tiles_are_the_largest_that_fit(self, m, d):
        rng = np.random.default_rng(m * d)
        q = rng.standard_normal((2, m, d)).astype(np.float32)
        k = rng.standard_normal((2, 4099, d)).astype(np.float32)
        _, tiles = _qk_tiles(q, k)
        _assert_left_to_right(tiles, 4099)
        rows = tiles[0][1]
        assert all(n == rows for _, n in tiles[:-1])
        assert rows * m <= SMALL_GEMM_OUTPUTS and rows * m * d <= SMALL_GEMM_MNK
        grown = rows + 1
        assert grown * m > SMALL_GEMM_OUTPUTS or grown * m * d > SMALL_GEMM_MNK

    @pytest.mark.parametrize("d", [16, 64, 128, 256])
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 32])
    def test_pv_spans_are_the_largest_that_fit(self, m, d):
        rng = np.random.default_rng(m * d)
        length = 2 * SMALL_GEMM_MNK // (m * d) + 7  # two spans and a tail
        p = rng.random((2, m, length)).astype(np.float32)
        v = rng.standard_normal((2, length, d)).astype(np.float32)
        _, spans = _pv_spans(p, v)
        _assert_left_to_right(spans, length)
        span = spans[0][1]
        assert all(n == span for _, n in spans[:-1])
        assert m * d * span <= SMALL_GEMM_MNK < m * d * (span + 1)

    def test_decode_shape_bounds(self):
        """gq = 4, d = 128 (LLaMA-3.1-8B): 300-row tiles, 1953-token spans."""
        q, p = np.ones((4, 128), np.float32), np.ones((4, 4096), np.float32)
        kv = np.ones((4096, 128), np.float32)
        assert _qk_tiles(q, kv)[1][:2] == [(0, 300), (300, 300)]
        assert _pv_spans(p, kv)[1] == [(0, 1953), (1953, 1953), (3906, 190)]

    def test_ranges_within_one_tile_are_one_call(self):
        q = np.ones((2, 4, 128), np.float32)
        assert _qk_tiles(q, np.ones((2, 300, 128), np.float32))[1] == [(0, 300)]
        p, v = np.ones((2, 4, 1953), np.float32), np.ones((2, 1953, 128), np.float32)
        assert _pv_spans(p, v)[1] == [(0, 1953)]

    def test_an_m_past_the_output_bound_is_one_call(self):
        q = np.ones((SMALL_GEMM_OUTPUTS + 1, 8), np.float32)
        assert _qk_tiles(q, np.ones((500, 8), np.float32))[1] == [(0, 500)]

    def test_pv_product_is_the_left_to_right_span_sum(self, rng):
        p = rng.random((2, 3, 4, 5000)).astype(np.float32)
        v = rng.standard_normal((2, 3, 5000, 128)).astype(np.float32)
        got, spans = _pv_spans(p, v)
        want = p[..., : spans[0][1]] @ v[..., : spans[0][1], :]
        for first, n in spans[1:]:
            want += p[..., first : first + n] @ v[..., first : first + n, :]
        _assert_bitwise(got, want)
        np.testing.assert_allclose(got, p @ v, rtol=1e-4, atol=1e-4)

    def test_scores_are_c_order_float32_with_every_column_written(self, rng):
        q = rng.standard_normal((3, 4, 64)).astype(np.float32)
        k = rng.standard_normal((3, 1000, 64)).astype(np.float32)
        got = qk_scores(q, k, 0.125)
        assert got.flags.c_contiguous and got.dtype == np.float32 and got.shape == (3, 4, 1000)
        np.testing.assert_allclose(got, _qk_reference(q, k, 0.125), rtol=1e-5, atol=1e-5)


class TestBlasProperty:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["none", "G", "B-hkv"])
    @pytest.mark.parametrize("d", [16, 64, 128])
    def test_each_tile_equals_q_at_k_transposed_bitwise(self, d, lead):
        rng = np.random.default_rng(d)
        scale = 1.0 / math.sqrt(d)  # a Python float, as every caller passes
        mismatches = []
        for m in (1, 2, 4, 8, 32, 128):
            q = rng.standard_normal((*lead, m, d)).astype(np.float32)
            for length in (1, 31, 32, 33, 128, 129, 300, 301, 1000, 4096):
                # A strided view (``k_res[g, :, :r]``-style) and its
                # contiguous copy must both hold.
                k_buf = rng.standard_normal((*lead, length + 5, d)).astype(np.float32)
                for k in (k_buf[..., :length, :], np.ascontiguousarray(k_buf[..., :length, :])):
                    got, tiles = _qk_tiles(q, k, scale)
                    for first, n in tiles:
                        k_tile = k[..., first : first + n, :]
                        want = np.ascontiguousarray(_qk_reference(q, k_tile, scale))
                        if got[..., first : first + n].tobytes() != want.tobytes():
                            mismatches.append((m, length, first, k.flags.c_contiguous))
        assert not mismatches, (
            "a qk_scores tile differs from q @ k_tile^T at (M, L, first row, contiguous) "
            f"{mismatches[:8]} ({len(mismatches)} total); BLAS: {_blas()}"
        )

    @pytest.mark.parametrize("d", [32, 64, 128])
    def test_scores_do_not_depend_on_the_tile_around_them(self, d):
        """Row locality: whole-range scores equal those of ``tile_n``-wide
        calls (the seed walk's tiles), so the fused and seed walks share
        every score bit."""
        rng = np.random.default_rng(d)
        mismatches = []
        for m in (2, 4, 8):
            q = rng.standard_normal((2, m, d)).astype(np.float32)
            k = rng.standard_normal((2, 4096, d)).astype(np.float32)
            got = qk_scores(q, k, 0.125)
            for tile_n in (64, 128):
                for t0 in range(0, 4096, tile_n):
                    want = qk_scores(q, k[:, t0 : t0 + tile_n], 0.125)
                    if got[..., t0 : t0 + tile_n].tobytes() != want.tobytes():
                        mismatches.append((m, tile_n, t0))
        assert not mismatches, (
            f"scores depend on their tile at (M, tile_n, first row) {mismatches[:8]} "
            f"({len(mismatches)} total); BLAS: {_blas()}"
        )


# ------------------------------------------------------------ end to end

#: Every module that looks ``qk_scores`` up on the decode path.
_LOOKUPS = ("repro.core.packing_kernel", "repro.core.residual_kernel")


def _assert_same_as_reference_formula(monkeypatch, run, sites):
    """``run()`` twice — as is, then with ``q @ k^T`` at every lookup.

    ``sites`` names the functions whose QK^T the run must exercise, so a
    site that stops looking ``qk_scores`` up fails here rather than
    passing vacuously.
    """
    new = run()
    callers = set()

    def reference(q, k, scale):
        callers.add(sys._getframe(1).f_code.co_name)
        return _qk_reference(q, k, scale)

    with monkeypatch.context() as m:
        for module in _LOOKUPS:
            m.setattr(f"{module}.qk_scores", reference)
        old = run()
    assert callers >= set(sites), f"exercised {sorted(callers)}"
    assert len(new) == len(old)
    for a, b in zip(new, old):
        _assert_bitwise(a, b)


def _assert_within_tolerance_of_walk(monkeypatch, run, config, walk):
    """``run()`` twice — as is, then with ``walk`` (a ``tests/reference_cache.py``
    walk) in place of ``_run_fused`` — and hold the outputs within
    ``FUSED_NUMERICS_TOLERANCE``."""
    new = run()
    calls = []

    def reference(*args):
        calls.append(args[1].shape[-2])
        return walk(*args)

    with monkeypatch.context() as m:
        m.setattr("repro.core.packing_kernel._run_fused", reference)
        old = run()
    assert calls and max(calls) > SMALL_GEMM_OUTPUTS, f"packed lengths {calls}"
    tol = FUSED_NUMERICS_TOLERANCE["fp4" if config.version == "fp4" else "int"]
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert _relative_gap(a, b) <= tol


class TestDecodeBitIdentity:
    @pytest.mark.parametrize(
        "config, arch, packed_site",
        [
            (BitDecodingConfig(bits=4), "a100", "_run_fused"),
            (BitDecodingConfig(bits=4, wn=2, use_coop_softmax=False), "a100", "run_numeric"),
            (BitDecodingConfig(version="fp4", fp4_format="mxfp4"), "rtx5090", "_run_fused"),
        ],
        ids=["fused", "non-coop-tiled", "mxfp4"],
    )
    def test_long_context_decode_across_a_flush(self, monkeypatch, config, arch, packed_site):
        """LLaMA-3.1-8B attention shape at ~4K context; the residual starts
        two tokens short of ``N_r`` so the appends cross a flush.

        The non-cooperative walk scores ``tile_n``-wide tiles, each within
        one small-kernel tile, so it stays bit-identical to the ``q @ k^T``
        formula.  The fused walks score and sum the whole packed range in
        small-kernel tiles and spans, so they are held within
        ``FUSED_NUMERICS_TOLERANCE`` instead: the integer walk of the
        one-GEMM walk, the FP4 walk of the seed walk (see
        :class:`TestTiledFusedWalk` for why FP4 is not held to the
        one-GEMM walk)."""
        hq, hkv, d = 32, 8, 128
        nr = config.residual_block_size

        def run():
            rng = np.random.default_rng(7)
            engine = BitDecoding(config, arch)
            seq = 32 * nr - 2
            cache = engine.prefill(
                rng.standard_normal((1, hkv, seq, d)).astype(np.float16),
                rng.standard_normal((1, hkv, seq, d)).astype(np.float16),
            )
            outs = []
            for _ in range(3):
                q = rng.standard_normal((1, 1, hq, d)).astype(np.float16)
                outs.append(engine.decode(q, cache))
                cache.append_token(
                    rng.standard_normal((1, hkv, d)).astype(np.float16),
                    rng.standard_normal((1, hkv, d)).astype(np.float16),
                )
            return outs

        if packed_site == "run_numeric":
            _assert_same_as_reference_formula(monkeypatch, run, [packed_site, "attend_residual"])
        else:
            walk = seed_run_numeric if config.version == "fp4" else one_gemm_run_fused
            _assert_within_tolerance_of_walk(monkeypatch, run, config, walk)

    @pytest.mark.parametrize(
        "config, sites",
        [
            (BitDecodingConfig(bits=4, wn=1), ["_run_fused", "attend_residual_grouped"]),
            # Non-cooperative configs group by exact residual fill, so the
            # grouped residual kernel hands every group to attend_residual.
            (
                BitDecodingConfig(bits=4, wn=2, use_coop_softmax=False),
                ["run_numeric", "attend_residual"],
            ),
        ],
        ids=["fused", "non-coop-tiled"],
    )
    def test_ragged_grouped_paged_decode(self, monkeypatch, config, sites):
        """Ragged residual fills in one group, flushing at different steps."""
        nr = config.residual_block_size
        hkv, hq, d = 2, 8, 64

        def run():
            rng = np.random.default_rng(11)
            backend = PagedBitBackend(config, n_pages=64)
            lengths = [4 * nr - 3, 4 * nr - 3, 4 * nr - 9, nr - 1, 2 * nr - 5, 3 * nr]
            bt = _ragged_batch(backend, lengths, rng, hkv=hkv, d=d)
            outs = []
            for _ in range(10):
                q = rng.standard_normal((len(lengths), 1, hq, d)).astype(np.float32)
                outs.append(backend.decode_step(q, bt))
                backend.append_kv(
                    (
                        rng.standard_normal((len(lengths), hkv, d)).astype(np.float32),
                        rng.standard_normal((len(lengths), hkv, d)).astype(np.float32),
                    ),
                    bt,
                )
            return outs

        _assert_same_as_reference_formula(monkeypatch, run, sites)


class TestTiledFusedWalk:
    """The tiled fused walk against the one-GEMM walk it replaced (integer
    configs) and the seed per-tile walk (FP4 configs).

    Past one tile, a score from a small-kernel tile and the same score
    from one whole-range GEMM (the blocked kernel) can differ in the last
    bit.  The integer softmax is continuous, so that moves an output by
    rounding only.  The FP4 walk re-quantizes each probability, and a
    last-bit score change can carry one across an FP4 rounding boundary:
    on the SkylakeX kernels the one-GEMM walk itself reads 7.0e-4 to
    1.2e-2 from the seed walk on 4 of the 43 NVFP4 draws below (none of
    the MXFP4 draws; none under Sandybridge).  The seed walk
    scores ``tile_n``-wide tiles with the same small kernel, whose rows do
    not depend on the tile around them on the SkylakeX and Sandybridge
    kernel sets, so FP4 is held to the seed walk — the documented
    tolerance's own reference — and stays within it on every draw.
    """

    @pytest.mark.parametrize(
        "config",
        [
            BitDecodingConfig(bits=2),
            BitDecodingConfig(bits=4),
            BitDecodingConfig(bits=8, granularity="tensor"),
        ],
        ids=["int2", "int4", "int8-tensor"],
    )
    def test_int_within_documented_tolerance_of_one_gemm_walk(self, config):
        """Lengths on both sides of a QK tile and of a PV span, at the
        decode shapes of LLaMA-3.1-8B (gq 4, d 128), bench-gqa (4, 64), an
        8-row group and one query row."""
        tol = FUSED_NUMERICS_TOLERANCE["int"]
        rng = np.random.default_rng(config.bits)
        for m, d in ((4, 128), (4, 64), (8, 128), (1, 128)):
            scale = 1.0 / math.sqrt(d)
            q = (rng.standard_normal((1, 2, m, d)) * 2).astype(np.float32)
            for length in (300, 301, 1953, 1954, 4099):
                k = rng.standard_normal((1, 2, length, d)).astype(np.float32)
                v = rng.standard_normal((1, 2, length, d)).astype(np.float32)
                got = run_numeric(q, k, v, config, scale).finalize()
                want = one_gemm_run_fused(q, k, v, config, scale).finalize()
                assert _relative_gap(got, want) <= tol, (m, d, length)

    @pytest.mark.parametrize("fmt", ["mxfp4", "nvfp4"])
    def test_fp4_within_documented_tolerance_of_seed_walk(self, fmt):
        """Packed lengths (whole ``N_r`` blocks) across a QK tile and a PV
        span at gq 4, d 128, then 40 draws at 1920 tokens with a peaked
        softmax (queries scaled by 2)."""
        config = BitDecodingConfig(version="fp4", fp4_format=fmt)
        tol = FUSED_NUMERICS_TOLERANCE["fp4"]
        rng = np.random.default_rng(4)
        scale = 1.0 / math.sqrt(128)
        draws = [(1.0, length) for length in (384, 2048, 3968)] + [(2.0, 1920)] * 40
        for i, (q_scale, length) in enumerate(draws):
            q = (rng.standard_normal((1, 2, 4, 128)) * q_scale).astype(np.float32)
            k = rng.standard_normal((1, 2, length, 128)).astype(np.float32)
            v = rng.standard_normal((1, 2, length, 128)).astype(np.float32)
            got = run_numeric(q, k, v, config, scale).finalize()
            want = seed_run_numeric(q, k, v, config, scale).finalize()
            assert _relative_gap(got, want) <= tol, (i, length)
