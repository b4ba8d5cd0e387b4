"""Backend parity: paged storage must decode exactly like contiguous storage.

The acceptance contract of the paged backend: with identical inputs,
``PagedBitBackend`` decode outputs are bit-identical to
``BitDecoding.decode`` over the contiguous ``BitKVCache`` under
``numerics_mode="exact_tiled"`` (and within ``FUSED_NUMERICS_TOLERANCE``
under ``"fused"``), across bit widths, granularities, the MXFP4/NVFP4
formats, flush boundaries and a preemption/resume schedule.  The paged
backend stores the *same* per-block tensors behind block tables, and
decode runs through the *same* ``BitDecoding.decode`` code path, so any
divergence is a real storage or gather bug.
"""

import numpy as np
import pytest

from repro.attn import AttentionBackend, KVCacheHandle, PagedBitBackend
from repro.attn.reference import chunked_causal_attention
from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import BitDecodingConfig
from repro.core.packing_kernel import FUSED_NUMERICS_TOLERANCE
from repro.model.transformer import TinyTransformer

#: (config overrides, device, tolerance key) of every stored format: the
#: integer widths on Ampere, the micro-scaling FP4 formats on Blackwell.
FORMATS = {
    "int2-channel": (dict(bits=2, granularity="channel"), "a100", "int"),
    "int2-token": (dict(bits=2, granularity="token"), "a100", "int"),
    "int4-channel": (dict(bits=4, granularity="channel"), "a100", "int"),
    "int4-token": (dict(bits=4, granularity="token"), "a100", "int"),
    "mxfp4": (dict(version="fp4", fp4_format="mxfp4"), "rtx5090", "fp4"),
    "nvfp4": (dict(version="fp4", fp4_format="nvfp4"), "rtx5090", "fp4"),
}


def _assert_decode_parity(out_cont, out_paged, numerics_mode, kind):
    if numerics_mode == "exact_tiled":
        np.testing.assert_array_equal(out_cont, out_paged)
    else:
        tol = FUSED_NUMERICS_TOLERANCE[kind]
        denom = max(1.0, float(np.abs(out_cont).max()))
        assert float(np.abs(out_cont - out_paged).max()) / denom <= tol


class TestDecodeParity:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("numerics_mode", ["exact_tiled", "fused"])
    def test_paged_matches_contiguous_across_flushes(self, rng, fmt, numerics_mode):
        overrides, arch, kind = FORMATS[fmt]
        config = BitDecodingConfig(numerics_mode=numerics_mode, wn=1, **overrides)
        engine = BitDecoding(config, arch)
        nr = engine.config.residual_block_size
        batch, hkv, hq, d = 2, 2, 4, 32
        seq = nr * 2 + 5
        paged = PagedBitBackend(engine, n_pages=8 * (seq // nr + 4))
        hp = paged.new_handle(batch, hkv, d)

        k = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
        v = rng.standard_normal((batch, hkv, seq, d)).astype(np.float16)
        q_pre = rng.standard_normal((batch, seq, hq, d)).astype(np.float32)
        out_p = paged.prefill(q_pre, (k, v), hp)
        # Prefill attention is exact FP32: bit-identical to the formula.
        np.testing.assert_array_equal(out_p, chunked_causal_attention(q_pre, None, None, k, v))
        cache = BitKVCache.from_prefill(k, v, engine.config)

        # Decode across a flush boundary (the residual fills and packs).
        for _ in range(nr + 3):
            k_new = rng.standard_normal((batch, hkv, d)).astype(np.float32)
            v_new = rng.standard_normal((batch, hkv, d)).astype(np.float32)
            cache.append_token(k_new, v_new)
            paged.append_kv((k_new, v_new), hp)
            q = rng.standard_normal((batch, 1, hq, d)).astype(np.float32)
            _assert_decode_parity(
                engine.decode(q, cache), paged.decode_step(q, hp), numerics_mode, kind
            )
        assert hp.seqs[0].n_blocks == cache.packed.n_blocks == 3

    @pytest.mark.parametrize("bits", [2, 4])
    def test_preemption_resume_schedule_stays_bit_identical(self, rng, bits):
        """Preempt (release pages), re-admit, re-pack: decode must equal the
        contiguous cache fed the same tokens — recycled pages included."""
        engine = BitDecoding(BitDecodingConfig(bits=bits, numerics_mode="exact_tiled", wn=1))
        nr = engine.config.residual_block_size
        hkv, hq, d = 2, 4, 16
        seq = nr * 2 + 7
        paged = PagedBitBackend(engine, n_pages=3 * (seq // nr + 2))
        k = rng.standard_normal((1, hkv, seq, d)).astype(np.float16)
        v = rng.standard_normal((1, hkv, seq, d)).astype(np.float16)

        # Victim fills pages, then is preempted (pages recycled).
        victim = paged.new_handle(1, hkv, d)
        paged.prefill(None, (k, v), victim)
        freed = set(victim.seqs[0].block_ids)
        paged.release(victim)

        # A new sequence re-admitted through the backend API lands in the
        # SAME physical pool and must reuse the victim's recycled pages.
        resumed = paged.new_handle(1, hkv, d)
        assert resumed.store is victim.store
        paged.prefill(None, (k, v), resumed)
        assert set(resumed.seqs[0].block_ids) & freed

        cache = BitKVCache.from_prefill(k, v, engine.config)
        for _ in range(3):
            k_new = rng.standard_normal((1, hkv, d)).astype(np.float32)
            v_new = rng.standard_normal((1, hkv, d)).astype(np.float32)
            cache.append_token(k_new, v_new)
            paged.append_kv((k_new, v_new), resumed)
            q = rng.standard_normal((1, 1, hq, d)).astype(np.float32)
            np.testing.assert_array_equal(engine.decode(q, cache), paged.decode_step(q, resumed))


class _ContiguousHandle(KVCacheHandle):
    cache = None

    @property
    def seq_len(self) -> int:
        return self.cache.seq_len


class _ContiguousBackend(AttentionBackend):
    """``BitDecoding.decode`` over a whole-prompt ``BitKVCache`` behind the
    protocol: the reference a transformer on the paged backend must match."""

    def __init__(self, engine: BitDecoding):
        self.engine = engine

    @property
    def attention_system(self) -> BitDecoding:
        return self.engine

    def new_handle(self, batch, hkv, head_dim):
        return _ContiguousHandle()

    def prefill(self, q, kv, block_table):
        k, v = (np.asarray(x, np.float16) for x in kv)
        block_table.cache = BitKVCache.from_prefill(k, v, self.engine.config)
        return chunked_causal_attention(q, None, None, *kv)

    def append_kv(self, kv, block_table):
        block_table.cache.append_token(*kv)

    def decode_step(self, q, block_table):
        return self.engine.decode(q, block_table.cache)


class TestTransformerParity:
    def test_tiny_transformer_identical_on_both_backends(self, rng):
        """End to end: a TinyTransformer wired to the paged backend decodes
        the exact same hidden states as one wired to the contiguous cache."""
        engine = BitDecoding(BitDecodingConfig(bits=4, numerics_mode="exact_tiled", wn=1))
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        cont_model = TinyTransformer(**dims, backend=_ContiguousBackend(engine), seed=0)
        paged_model = TinyTransformer(**dims, backend=PagedBitBackend(engine, n_pages=16), seed=0)
        nr = engine.config.residual_block_size
        x = rng.standard_normal((1, nr + 5, 64)).astype(np.float32) * 0.5
        h_c = cont_model.prefill(x.copy())
        h_p = paged_model.prefill(x.copy())
        np.testing.assert_array_equal(h_c, h_p)
        for _ in range(3):
            step = rng.standard_normal((1, 64)).astype(np.float32) * 0.5
            np.testing.assert_array_equal(
                cont_model.decode_step(step.copy()), paged_model.decode_step(step.copy())
            )

    def test_repeated_prefill_recycles_the_shared_pool(self, rng):
        """Re-prefilling a paged-backend model must release the old
        session's pages and residual slots, not leak the shared pool."""
        config = BitDecodingConfig(bits=4, wn=1)
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        backend = PagedBitBackend(config, n_pages=8)
        backend.N_SLOTS = 2  # one slot per layer: a leaked slot fails the next prefill
        model = TinyTransformer(**dims, backend=backend, seed=0)
        store = backend.store_for(2, 16)
        assert store.slots.n_pages == 2
        for _ in range(6):  # > n_slots and > n_pages worth of prompts
            model.prefill(rng.standard_normal((1, 40, 64)).astype(np.float32) * 0.5)
            assert store.slots.used_pages == dims["n_layers"]
        model.release_session(model._session)
        assert store.slots.used_pages == 0
        assert store.table.allocator.used_pages == 0

    def test_chunked_prefill_tracks_whole_prompt(self, rng):
        """Chunked prefill over the paged cache stays close to whole-prompt
        prefill: chunks re-read context through the quantized cache, so the
        match is tolerance-level, not bitwise."""
        config = BitDecodingConfig(bits=8, wn=1)  # INT8: tiny quantization error
        dims = dict(n_layers=2, hq=4, hkv=2, head_dim=16, hidden=64, intermediate=128)
        whole = TinyTransformer(**dims, backend=PagedBitBackend(config, n_pages=32), seed=0)
        chunked = TinyTransformer(**dims, backend=PagedBitBackend(config, n_pages=32), seed=0)
        x = rng.standard_normal((1, 40, 64)).astype(np.float32) * 0.5
        h_whole = whole.prefill(x.copy())
        sess = chunked.new_session()
        outs = [chunked.prefill_chunk(x[:, c : c + 16].copy(), sess) for c in (0, 16, 32)]
        h_chunked = np.concatenate(outs, axis=1)
        rel = np.abs(h_chunked - h_whole).max() / (np.abs(h_whole).max() + 1e-9)
        assert rel < 0.05
        # And decode continues seamlessly from the chunked session.
        step = rng.standard_normal((1, 64)).astype(np.float32) * 0.5
        out = chunked.decode_step(step, sess)
        assert out.shape == (1, 64) and np.all(np.isfinite(out))
