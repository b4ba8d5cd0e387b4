"""Online softmax, split-KV merges, and Algorithm 1's cooperative variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.softmax import (
    OnlineSoftmaxState,
    pad_tail,
    reference_attention,
    tile_softmax_split,
)


def update(state, scores, values):
    """Fold one tile into ``state``: the textbook online-softmax step.

    ``scores`` is ``(..., M, Tn)`` and ``values`` ``(..., Tn, d)``.
    """
    scores = np.asarray(scores, dtype=np.float32)
    values = np.asarray(values, dtype=np.float32)
    m_new = np.maximum(state.m, scores.max(axis=-1))
    correction = np.exp(state.m - m_new)
    correction = np.where(np.isfinite(correction), correction, 0.0)
    p = np.exp(scores - m_new[..., None])
    state.l = state.l * correction + p.sum(axis=-1)
    state.acc = state.acc * correction[..., None] + p @ values
    state.m = m_new


def split_kv_attention(q, k, v, n_splits, tile_n=128):
    """FlashDecoding-style split-KV attention: ``n_splits`` partitions with
    independent tiled states, reduced by :meth:`OnlineSoftmaxState.merge`."""
    q, k, v = (np.asarray(x, dtype=np.float32) for x in (q, k, v))
    scale = 1.0 / np.sqrt(q.shape[-1])
    n_splits = max(1, min(n_splits, k.shape[0]))
    bounds = np.linspace(0, k.shape[0], n_splits + 1, dtype=np.int64)
    partials = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        state = OnlineSoftmaxState.fresh(q.shape[0], v.shape[-1])
        for t0 in range(lo, hi, tile_n):
            t1 = min(t0 + tile_n, hi)
            update(state, (q @ k[t0:t1].T) * scale, v[t0:t1])
        partials.append(state)
    out = partials[0]
    for state in partials[1:]:
        out.merge(state)
    return out.finalize()


def _rand_attention(rng, m=4, n=256, d=32):
    q = rng.standard_normal((m, d)).astype(np.float32)
    k = rng.standard_normal((n, d)).astype(np.float32)
    v = rng.standard_normal((n, d)).astype(np.float32)
    return q, k, v


class TestOnlineSoftmax:
    def test_single_tile_matches_reference(self, rng):
        q, k, v = _rand_attention(rng)
        state = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        s = (q @ k.T) / np.sqrt(q.shape[1])
        update(state, s, v)
        np.testing.assert_allclose(state.finalize(), reference_attention(q, k, v), rtol=1e-5, atol=1e-6)

    def test_tiled_updates_match_reference(self, rng):
        q, k, v = _rand_attention(rng, n=300)
        scale = 1 / np.sqrt(q.shape[1])
        state = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        for t0 in range(0, 300, 64):
            t1 = min(t0 + 64, 300)
            update(state, (q @ k[t0:t1].T) * scale, v[t0:t1])
        np.testing.assert_allclose(state.finalize(), reference_attention(q, k, v), rtol=1e-5, atol=1e-6)

    def test_tile_order_does_not_matter(self, rng):
        q, k, v = _rand_attention(rng, n=128)
        scale = 1 / np.sqrt(q.shape[1])
        a = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        b = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(a, (q @ k[:64].T) * scale, v[:64])
        update(a, (q @ k[64:].T) * scale, v[64:])
        update(b, (q @ k[64:].T) * scale, v[64:])
        update(b, (q @ k[:64].T) * scale, v[:64])
        np.testing.assert_allclose(a.finalize(), b.finalize(), rtol=1e-5, atol=1e-6)

    def test_merge_equals_sequential(self, rng):
        """The split-KV reduction: merging partials == one long pass."""
        q, k, v = _rand_attention(rng, n=256)
        scale = 1 / np.sqrt(q.shape[1])
        seq = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(seq, (q @ k.T) * scale, v)
        p1 = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(p1, (q @ k[:96].T) * scale, v[:96])
        p2 = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(p2, (q @ k[96:].T) * scale, v[96:])
        p1.merge(p2)
        np.testing.assert_allclose(p1.finalize(), seq.finalize(), rtol=1e-5, atol=1e-6)

    def test_merge_with_empty_partial(self, rng):
        q, k, v = _rand_attention(rng)
        scale = 1 / np.sqrt(q.shape[1])
        full = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(full, (q @ k.T) * scale, v)
        empty = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        full.merge(empty)
        np.testing.assert_allclose(full.finalize(), reference_attention(q, k, v), rtol=1e-5, atol=1e-6)

    def test_finalize_on_empty_state_raises(self):
        with pytest.raises(ValueError):
            OnlineSoftmaxState.fresh(2, 4).finalize()

    def test_large_logits_stable(self, rng):
        """Online rescaling must survive logits that overflow naive exp."""
        q, k, v = _rand_attention(rng, n=64)
        state = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        s = (q @ k.T) + 300.0
        update(state, s[:, :32], v[:32])
        update(state, s[:, 32:] + 300.0, v[32:])  # second tile even hotter
        out = state.finalize()
        assert np.all(np.isfinite(out))


class TestTwoPassSoftmax:
    """``from_scores``: the fused path's softmax over a whole score row."""

    def test_from_scores_matches_tiled_walk(self, rng):
        q, k, v = _rand_attention(rng, n=300)
        s = (q @ k.T) / np.sqrt(q.shape[1])
        tiled = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        for t0 in range(0, 300, 64):
            update(tiled, s[:, t0:t0 + 64], v[t0:t0 + 64])
        fused = OnlineSoftmaxState.from_scores(s, v)
        np.testing.assert_array_equal(fused.m, tiled.m)  # same row maximum
        np.testing.assert_allclose(fused.l, tiled.l, rtol=1e-5)
        np.testing.assert_allclose(
            fused.finalize(), reference_attention(q, k, v), rtol=1e-5, atol=1e-6
        )

    def test_from_scores_merges_with_a_residual_tail(self, rng):
        """The packed part's two-pass state merges with the residual
        tile's state exactly like a tiled one (decode's final merge)."""
        q, k, v = _rand_attention(rng, n=200)
        s = (q @ k.T) / np.sqrt(q.shape[1])
        packed = OnlineSoftmaxState.from_scores(s[:, :128], v[:128])
        tail = OnlineSoftmaxState.from_scores(s[:, 128:], v[128:])
        packed.merge(tail)
        np.testing.assert_allclose(
            packed.finalize(), reference_attention(q, k, v), rtol=1e-5, atol=1e-6
        )

    def test_pad_tail_never_changes_the_result(self, rng):
        q, k, v = _rand_attention(rng, n=50)
        s = (q @ k.T) / np.sqrt(q.shape[1])
        ps, pv = pad_tail(s, v, 32)
        assert ps.shape == (q.shape[0], 64) and pv.shape == (64, v.shape[1])
        assert np.all(np.isneginf(ps[:, 50:])) and not pv[50:].any()
        np.testing.assert_allclose(
            OnlineSoftmaxState.from_scores(ps, pv).finalize(),
            OnlineSoftmaxState.from_scores(s, v).finalize(),
            rtol=1e-6, atol=1e-7,
        )
        aligned_s, aligned_v = pad_tail(ps, pv, 32)
        assert aligned_s is ps and aligned_v is pv


class TestCooperativeSoftmax:
    @pytest.mark.parametrize("wn", [1, 2, 4, 8])
    def test_cooperative_matches_single_warp(self, rng, wn):
        q, k, v = _rand_attention(rng, n=128)
        scale = 1 / np.sqrt(q.shape[1])
        s = (q @ k.T) * scale
        coop = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        tile_softmax_split(coop, s, v, wn=wn, cooperative=True)
        ref = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(ref, s, v)
        np.testing.assert_allclose(coop.finalize(), ref.finalize(), rtol=1e-5, atol=1e-6)

    def test_non_cooperative_is_wrong_for_wide_wn(self, rng):
        """Table III's 'Valid = x' row, reproduced numerically."""
        q, k, v = _rand_attention(rng, n=128)
        s = (q @ k.T)  # unscaled: larger spread -> distinct warp maxima
        broken = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        tile_softmax_split(broken, s, v, wn=4, cooperative=False)
        ref = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(ref, s, v)
        assert not np.allclose(broken.finalize(), ref.finalize(), atol=1e-3)

    def test_non_cooperative_with_single_warp_is_fine(self, rng):
        q, k, v = _rand_attention(rng, n=128)
        s = (q @ k.T)
        solo = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        tile_softmax_split(solo, s, v, wn=1, cooperative=False)
        ref = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        update(ref, s, v)
        np.testing.assert_allclose(solo.finalize(), ref.finalize(), rtol=1e-5, atol=1e-6)

    def test_uneven_split_rejected(self, rng):
        q, k, v = _rand_attention(rng, n=100)
        state = OnlineSoftmaxState.fresh(q.shape[0], v.shape[1])
        with pytest.raises(ValueError, match="evenly"):
            tile_softmax_split(state, q @ k.T, v, wn=3)


class TestSplitKv:
    @pytest.mark.parametrize("n_splits", [1, 2, 7, 32])
    def test_any_split_count_matches_reference(self, rng, n_splits):
        q, k, v = _rand_attention(rng, n=500)
        out = split_kv_attention(q, k, v, n_splits)
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-5, atol=1e-6)

    def test_more_splits_than_tokens_clamped(self, rng):
        q, k, v = _rand_attention(rng, n=8)
        out = split_kv_attention(q, k, v, n_splits=64)
        np.testing.assert_allclose(out, reference_attention(q, k, v), rtol=1e-5, atol=1e-6)


class TestProperties:
    @given(
        n=st.integers(2, 200),
        wn=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=50, deadline=None)
    def test_cooperative_equivalence_property(self, n, wn, seed):
        rng = np.random.default_rng(seed)
        n = (n // wn) * wn
        if n == 0:
            return
        q = rng.standard_normal((2, 16)).astype(np.float32)
        k = rng.standard_normal((n, 16)).astype(np.float32)
        v = rng.standard_normal((n, 16)).astype(np.float32)
        s = q @ k.T
        coop = OnlineSoftmaxState.fresh(2, 16)
        tile_softmax_split(coop, s, v, wn=wn, cooperative=True)
        ref = OnlineSoftmaxState.fresh(2, 16)
        update(ref, s, v)
        np.testing.assert_allclose(coop.finalize(), ref.finalize(), rtol=1e-4, atol=1e-5)

    @given(n_splits=st.integers(1, 16), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_split_invariance_property(self, n_splits, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((1, 8)).astype(np.float32)
        k = rng.standard_normal((64, 8)).astype(np.float32)
        v = rng.standard_normal((64, 8)).astype(np.float32)
        out = split_kv_attention(q, k, v, n_splits)
        np.testing.assert_allclose(
            out, reference_attention(q, k, v), rtol=1e-4, atol=1e-5
        )

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_output_in_value_convex_hull(self, seed):
        """Softmax attention output is a convex combination of V rows."""
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((1, 8)).astype(np.float32)
        k = rng.standard_normal((32, 8)).astype(np.float32)
        v = rng.standard_normal((32, 8)).astype(np.float32)
        out = split_kv_attention(q, k, v, 4)
        assert np.all(out <= v.max(axis=0) + 1e-5)
        assert np.all(out >= v.min(axis=0) - 1e-5)
