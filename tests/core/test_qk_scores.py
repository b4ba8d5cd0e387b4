"""``qk_scores``: the decode QK^T with the KV axis on BLAS's M dimension.

Every decode score GEMM goes through :func:`repro.core.softmax.qk_scores`,
which computes ``k @ q^T`` (long KV axis as M) and copies the result back
to C-contiguous ``(..., M, L)``.  That is only a speed change if BLAS gives
bitwise the same dot products either way round, so this file pins

- the BLAS property itself over decode shapes — if a BLAS upgrade breaks
  it, :class:`TestBlasProperty` fails here instead of every downstream
  digest drifting silently; and
- end to end, that decode outputs are bit-identical to the ``q @ k^T``
  formula patched in where each module looks ``qk_scores`` up.
"""

import math
import sys

import numpy as np
import pytest

from repro.attn.paged import PagedBitBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.softmax import qk_scores
from tests.attn.test_grouped_decode import _ragged_batch


def _qk_reference(q, k, scale):
    return (q @ np.swapaxes(k, -1, -2)) * scale


def _assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestBlasProperty:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=["none", "G", "B-hkv"])
    @pytest.mark.parametrize("d", [16, 64, 128])
    def test_equals_q_at_k_transposed_bitwise(self, d, lead):
        rng = np.random.default_rng(d)
        scale = 1.0 / math.sqrt(d)  # a Python float, as every caller passes
        mismatches = []
        for m in (1, 2, 4, 8, 32, 128):
            q = rng.standard_normal((*lead, m, d)).astype(np.float32)
            for length in (1, 31, 32, 33, 128, 129, 1000, 4096):
                # A strided view (``k_res[g, :, :r]``-style) and its
                # contiguous copy must both hold.
                k_buf = rng.standard_normal((*lead, length + 5, d)).astype(np.float32)
                for k in (k_buf[..., :length, :], np.ascontiguousarray(k_buf[..., :length, :])):
                    got = qk_scores(q, k, scale)
                    assert got.flags.c_contiguous and got.dtype == np.float32
                    if got.tobytes() != _qk_reference(q, k, scale).tobytes():
                        mismatches.append((m, length, k.flags.c_contiguous))
        assert not mismatches, f"qk_scores differs from q @ k^T at (M, L, contiguous) {mismatches}"


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
        two tokens short of ``N_r`` so the appends cross a flush."""
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

        _assert_same_as_reference_formula(monkeypatch, run, [packed_site, "attend_residual"])

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
