"""Tensor-parallel page sharding: bit-exactness, pricing, validation.

TP shards the KV-head space; per-head independence (quantization,
softmax, PV never mix heads) means the sharded backend must reproduce
the single-rank run *bit for bit*, not approximately.  Every numeric
test here asserts ``array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.attn import PagedBitBackend
from repro.attn.paged import PagedBitKVCache
from repro.cluster import ShardedPagedBackend
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.model.config import TINY, get_model
from repro.model.inference import decode_step_breakdown
from tests.attn.test_grouped_decode import _ragged_batch as ragged_batch

KERNEL_CONFIG = BitDecodingConfig(bits=4, wn=1)  # N_r = 32
NR = KERNEL_CONFIG.residual_block_size

#: TINY's attention geometry: 4 query heads grouped over 2 KV heads.
HQ, HKV, HEAD_DIM = TINY.hq, TINY.hkv, TINY.head_dim


def _qkv(rng, batch, n, hq=HQ, hkv=HKV, head_dim=HEAD_DIM):
    q = rng.standard_normal((batch, n, hq, head_dim)).astype(np.float32)
    k = rng.standard_normal((batch, hkv, n, head_dim)).astype(np.float32)
    v = rng.standard_normal((batch, hkv, n, head_dim)).astype(np.float32)
    return q, k, v


def _pair(a100, tp=2):
    sharded = ShardedPagedBackend(BitDecoding(KERNEL_CONFIG, a100), tp=tp)
    single = PagedBitBackend(BitDecoding(KERNEL_CONFIG, a100))
    return sharded, single


class TestBitExactness:
    def test_prefill_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        q, k, v = _qkv(rng, batch=2, n=3 * NR + 7)
        out_s = sharded.prefill(q, (k, v), sharded.new_handle(2, HKV, HEAD_DIM))
        out_1 = single.prefill(q, (k, v), single.new_handle(2, HKV, HEAD_DIM))
        assert out_s.shape == out_1.shape
        assert np.array_equal(out_s, out_1)

    def test_decode_stream_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        bt_s = sharded.new_handle(2, HKV, HEAD_DIM)
        bt_1 = single.new_handle(2, HKV, HEAD_DIM)
        q0, k0, v0 = _qkv(rng, batch=2, n=2 * NR + 5)
        sharded.prefill(q0, (k0, v0), bt_s)
        single.prefill(q0, (k0, v0), bt_1)
        for _ in range(2 * NR + 3):  # crosses a residual-block flush
            q, k, v = _qkv(rng, batch=2, n=1)
            k, v = k[:, :, 0], v[:, :, 0]  # one token: [batch, hkv, d] rows
            sharded.append_kv((k, v), bt_s)
            single.append_kv((k, v), bt_1)
            out_s = sharded.decode_step(q, bt_s)
            out_1 = single.decode_step(q, bt_1)
            assert np.array_equal(out_s, out_1)

    def test_looped_decode_matches_single_rank(self, rng, a100):
        sharded, single = _pair(a100)
        bt_s = sharded.new_handle(3, HKV, HEAD_DIM)
        bt_1 = single.new_handle(3, HKV, HEAD_DIM)
        q0, k0, v0 = _qkv(rng, batch=3, n=NR + 9)
        sharded.prefill(q0, (k0, v0), bt_s)
        single.prefill(q0, (k0, v0), bt_1)
        q, k, v = _qkv(rng, batch=3, n=1)
        k, v = k[:, :, 0], v[:, :, 0]
        sharded.append_kv((k, v), bt_s)
        single.append_kv((k, v), bt_1)
        assert np.array_equal(
            sharded.decode_step_looped(q, bt_s),
            single.decode_step_looped(q, bt_1),
        )

    def test_tp_equals_hkv_still_exact(self, rng, a100):
        # One KV head per rank: the finest legal shard.
        sharded, single = _pair(a100, tp=HKV)
        q, k, v = _qkv(rng, batch=1, n=NR + 3)
        out_s = sharded.prefill(q, (k, v), sharded.new_handle(1, HKV, HEAD_DIM))
        out_1 = single.prefill(q, (k, v), single.new_handle(1, HKV, HEAD_DIM))
        assert np.array_equal(out_s, out_1)


def _ragged_batch(backend, seed, lengths):
    """One batch handle over sequences prefilled to different lengths."""
    return ragged_batch(backend, lengths, np.random.default_rng(seed), hkv=HKV, d=HEAD_DIM)


class TestHeadSplit:
    def test_ragged_batch_matches_single_rank(self, rng, a100):
        # Mixed n_blocks and residual fills: several decode groups per
        # step, singleton and batched, two members crossing a flush.
        lengths = [5, NR + 3, NR + 30, 2 * NR + 31, NR + 3, 2 * NR]
        sharded, single = _pair(a100)
        bt_s = _ragged_batch(sharded, 11, lengths)
        bt_1 = _ragged_batch(single, 11, lengths)
        for _ in range(4):
            q, k, v = _qkv(rng, batch=len(lengths), n=1)
            k, v = k[:, :, 0], v[:, :, 0]
            sharded.append_kv((k, v), bt_s)
            single.append_kv((k, v), bt_1)
            out_s = sharded.decode_step(q, bt_s)
            assert np.array_equal(out_s, single.decode_step(q, bt_1))
            assert np.array_equal(out_s, sharded.decode_step_looped(q, bt_s))
        assert [s.seq_len for s in bt_s.seqs] == [n + 4 for n in lengths]

    def test_each_rank_decodes_only_its_head_slice(self, rng, a100, monkeypatch):
        # The bit-exactness oracle must not be vacuous: every kernel call
        # of the sharded backend really runs on hq/tp query heads over
        # hkv/tp KV heads, never the inherited unsplit path.
        sharded, _ = _pair(a100, tp=2)
        bt = _ragged_batch(sharded, 5, [NR + 3, NR + 3, 7])
        seen = []
        decode = sharded.engine.decode

        def spy(q, cache):
            seen.append((q.shape[2], cache.hkv, cache.dequant_kv()[0].shape[1]))
            return decode(q, cache)

        monkeypatch.setattr(sharded.engine, "decode", spy)
        q, _, _ = _qkv(rng, batch=3, n=1)
        sharded.decode_step(q, bt)
        sharded.decode_step_looped(q, bt)
        # decode_step: one group of two + one singleton; looped: three.
        assert seen == [(HQ // 2, HKV // 2, HKV // 2)] * (2 * 2 + 2 * 3)

    def test_stores_are_the_ordinary_paged_pool(self, a100):
        # A rank is a head slice of ONE pool holding every KV head, so
        # sharding can neither duplicate nor drop storage.
        sharded, single = _pair(a100)
        store = sharded.store_for(HKV, HEAD_DIM)
        assert type(store) is PagedBitKVCache
        assert store.k_words.shape == single.store_for(HKV, HEAD_DIM).k_words.shape

    def test_tp_must_divide_hkv(self, rng, a100):
        sharded, _ = _pair(a100, tp=3)
        bt = _ragged_batch(sharded, 0, [NR + 1])
        q = rng.standard_normal((1, 1, 6, HEAD_DIM)).astype(np.float32)
        with pytest.raises(ValueError, match="does not divide"):
            sharded.decode_step(q, bt)

    def test_tp_must_be_positive(self, a100):
        with pytest.raises(ValueError, match="tp must be >= 1"):
            ShardedPagedBackend(BitDecoding(KERNEL_CONFIG, a100), tp=0)

    def test_head_split_requires_divisible_heads(self, rng, a100):
        sharded, _ = _pair(a100, tp=2)
        bt = _ragged_batch(sharded, 0, [NR + 1])
        q = rng.standard_normal((1, 1, 3, HEAD_DIM)).astype(np.float32)
        with pytest.raises(ValueError, match="does not split"):
            sharded.decode_step(q, bt)


class TestTPPricing:
    def test_allreduce_tax_is_charged(self, a100):
        model = get_model("llama-3.1-8b")
        kernel = BitDecoding(KERNEL_CONFIG, a100)
        tp2 = decode_step_breakdown(model, a100, kernel, 8, 4096, n_gpus=2, tp=2)
        tp1 = decode_step_breakdown(model, a100, kernel, 8, 4096)
        assert tp2.comm_ms > 0.0
        assert tp1.comm_ms == 0.0
        # Head sharding shrinks the attention kernel strictly.
        assert tp2.attention_ms < tp1.attention_ms

    def test_backend_pricing_defaults_to_its_own_degree(self, a100):
        sharded, single = _pair(a100, tp=2)
        model = get_model("llama-3.1-8b")
        # No n_gpus/tp arguments: the sharded backend prices at tp=2.
        ms_sharded = sharded.decode_step_ms(model, a100, 8, 4096)
        ms_explicit = single.decode_step_ms(model, a100, 8, 4096, n_gpus=2, tp=2)
        ms_single = single.decode_step_ms(model, a100, 8, 4096)
        assert ms_sharded == pytest.approx(ms_explicit)
        assert ms_sharded != pytest.approx(ms_single)

    def test_arch_interconnect_fields_validated(self, a100):
        import dataclasses

        assert a100.nvlink_bw_gbs > 0
        assert a100.allreduce_latency_us >= 0
        with pytest.raises(ValueError, match="nvlink_bw_gbs"):
            dataclasses.replace(a100, nvlink_bw_gbs=0.0)
        with pytest.raises(ValueError, match="nvlink_bw_gbs"):
            dataclasses.replace(a100, allreduce_latency_us=-1.0)
