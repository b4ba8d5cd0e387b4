"""``chunked_causal_attention``: prefill attention in its key-major layout.

Every backend's prefill, and decode without a backend, goes through
:func:`repro.attn.reference.chunked_causal_attention`.  It issues the two
GEMMs ``np.einsum(..., optimize=True)`` makes for the query-major formula
(``K @ Q_cols`` with the keys as M, then ``V^T @ P``) and runs the softmax
on the contiguous key-major scores, reducing over their outer axis.  That
is only a speed change if the bits equal the einsum formula's, so this
file pins

- bitwise equality with that formula on the bench-gqa chunks the e2e
  workloads execute — if a NumPy/BLAS upgrade breaks it, this fails first
  and names the BLAS, instead of every downstream digest drifting;
- tolerance equality with a per-head loop off that geometry (batch, group
  size, strided inputs), where the einsum may copy an operand this layout
  passes as a view; and
- end to end, that an executed run's decoded hidden states are
  bit-identical with the einsum formula patched in where the paged
  backend looks it up.
"""

import math

import numpy as np
import pytest

from repro.attn.reference import chunked_causal_attention
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.model.transformer import TinyTransformer, rms_norm, rope_angles
from repro.serving import ContinuousBatchingEngine, poisson_trace
from repro.serving.crosscheck import decoded_bit_exact, int4_stack
from tests.model.test_row_floor import _blas


def _einsum_attention(q, k_ctx, v_ctx, k_new, v_new):
    """The query-major grouped einsum formula: ``(b, hkv, gq, n, keys)`` scores."""
    q = np.asarray(q, dtype=np.float32)
    batch, n, hq, d = q.shape
    hkv = k_new.shape[1]
    gq = hq // hkv
    cached = 0 if k_ctx is None else k_ctx.shape[2]
    rows = np.arange(n)
    mask = np.zeros((n, cached + n), np.float32)
    mask[:, cached:][rows[:, None] < rows[None, :]] = -np.inf
    k_all = np.concatenate([k_ctx, k_new], axis=2) if cached else k_new
    v_all = np.concatenate([v_ctx, v_new], axis=2) if cached else v_new
    qg = q.transpose(0, 2, 1, 3).reshape(batch, hkv, gq, n, d)
    s = np.einsum("bhgqd,bhkd->bhgqk", qg, k_all, optimize=True) * (1.0 / math.sqrt(d))
    s += mask
    s -= s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.einsum("bhgqk,bhkd->bhgqd", p, v_all, optimize=True)
    return out.reshape(batch, hq, n, d).transpose(0, 2, 1, 3)


def _per_head_loop(q, k_ctx, v_ctx, k_new, v_new):
    batch, n, hq, d = q.shape
    hkv = k_new.shape[1]
    cached = 0 if k_ctx is None else k_ctx.shape[2]
    k_all = np.concatenate([k_ctx, k_new], axis=2) if cached else k_new
    v_all = np.concatenate([v_ctx, v_new], axis=2) if cached else v_new
    hidden = np.triu(np.ones((n, n), bool), k=1)
    out = np.empty((batch, n, hq, d), np.float32)
    for b in range(batch):
        for h in range(hq):
            s = q[b, :, h] @ k_all[b, h * hkv // hq].T / np.sqrt(np.float32(d))
            s[:, cached:][hidden] = -np.inf
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            out[b, :, h] = (p / p.sum(axis=-1, keepdims=True)) @ v_all[b, h * hkv // hq]
    return out


def _split(q, k, v, cached):
    """``(q, k_ctx, v_ctx, k_new, v_new)`` for the chunk after ``cached`` tokens."""
    if not cached:
        return q, None, None, k, v
    return (
        q[:, cached:],
        k[:, :, :cached],
        v[:, :, :cached],
        k[:, :, cached:],
        v[:, :, cached:],
    )


class TestEinsumBits:
    def test_bench_gqa_chunks_equal_einsum_bitwise(self):
        """Batch 1, hq 8, hkv 2, d 64: the chunks and decode rows the
        executed workloads run, over empty and partly cached contexts."""
        model = TinyTransformer(
            n_layers=1, hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024, seed=0
        )
        layer = model.layers[0]
        x = np.random.default_rng(3).standard_normal((1, 512, 512)).astype(np.float32)
        cos, sin = rope_angles(64, np.arange(512))
        q_all, k_all, v_all = model._attention_inputs(
            layer, rms_norm(x, layer.norm_attn), cos, sin
        )
        mismatches = []
        for n in (1, 15, 59, 64, 69, 128):
            for cached in (0, 59, 128, 187, 384):
                seq = cached + n
                args = _split(q_all[:, :seq], k_all[:, :, :seq], v_all[:, :, :seq], cached)
                got = chunked_causal_attention(*args)
                assert got.shape == (1, n, 8, 64) and got.dtype == np.float32
                if got.tobytes() != _einsum_attention(*args).tobytes():
                    mismatches.append((n, cached))
        assert not mismatches, (
            f"prefill attention differs from the einsum formula at (n, cached) "
            f"{mismatches}; BLAS: {_blas()}"
        )


class TestPerHeadLoop:
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("gq", [1, 2, 4])
    def test_matches_per_head_loop(self, gq, batch, strided):
        rng = np.random.default_rng(gq * 10 + batch)
        hkv, d = 2, 16
        hq = gq * hkv
        for n, cached in ((1, 0), (1, 17), (12, 0), (12, 29)):
            seq = cached + n
            if strided:
                # The fused-projection layout: heads interleaved per token.
                q = rng.standard_normal((batch, seq, hq + 1, d)).astype(np.float32)[:, :, :hq]
                kv = rng.standard_normal((batch, seq, 2 * hkv, d)).astype(np.float32)
                k, v = kv.transpose(0, 2, 1, 3)[:, :hkv], kv.transpose(0, 2, 1, 3)[:, hkv:]
            else:
                q = rng.standard_normal((batch, seq, hq, d)).astype(np.float32)
                k = rng.standard_normal((batch, hkv, seq, d)).astype(np.float32)
                v = rng.standard_normal((batch, hkv, seq, d)).astype(np.float32)
            args = _split(q, k, v, cached)
            np.testing.assert_allclose(
                chunked_causal_attention(*args), _per_head_loop(*args), rtol=1e-5, atol=1e-6
            )


class TestExecutedRun:
    def test_decoded_equals_einsum_formula(self, monkeypatch):
        """Chunked prefill over prefix-cache hits, then decode: every
        decoded hidden state is bit-identical with the einsum formula."""
        stack = int4_stack(TINY, get_arch("a100"))
        trace = poisson_trace(
            6, 5000.0, prompt_len=70, output_len=6, seed=7, shared_prefix_fraction=0.5
        )

        def run():
            config = stack.config(
                True, n_pages=64, max_batch=8, max_steps=2000,
                prefill_chunk_tokens=stack.nr, prefix_cache=True,
            )
            engine = ContinuousBatchingEngine(config, trace)
            report = engine.run()
            assert report.prefix_hit_tokens > 0
            return engine.decoded

        new = run()
        calls = []

        def einsum(*args):
            calls.append(args[0].shape[1])
            return _einsum_attention(*args)

        with monkeypatch.context() as m:
            m.setattr("repro.attn.paged.chunked_causal_attention", einsum)
            old = run()
        assert calls and max(calls) > 1
        assert decoded_bit_exact(new, old)
