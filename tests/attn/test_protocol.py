"""The AttentionBackend protocol: pricing and numeric surfaces, handles."""

import numpy as np
import pytest

from repro.attn import AnalyticalBackend, PagedBitBackend
from repro.core.config import BitDecodingConfig


class TestAnalyticalBackend:
    def test_prices_steps_like_the_raw_functions(self, a100):
        from repro.core.attention import BitDecoding
        from repro.model.config import LLAMA31_8B
        from repro.model.inference import decode_step_ms, mixed_step_ms, prefill_time_ms

        kernel = BitDecoding(BitDecodingConfig(bits=4), a100)
        backend = AnalyticalBackend(kernel)
        assert backend.decode_step_ms(LLAMA31_8B, a100, 4, 4096) == decode_step_ms(
            LLAMA31_8B, a100, kernel, 4, 4096
        )
        assert backend.mixed_step_ms(
            LLAMA31_8B, a100, 4, 4096, [(0, 512)]
        ) == mixed_step_ms(LLAMA31_8B, a100, kernel, 4, 4096, [(0, 512)])
        assert backend.prefill_time_ms(LLAMA31_8B, a100, 4096) == prefill_time_ms(
            LLAMA31_8B, a100, 4096
        )

    def test_refuses_tokens(self, a100):
        from repro.core.attention import BitDecoding

        backend = AnalyticalBackend(BitDecoding(BitDecodingConfig(bits=4), a100))
        with pytest.raises(NotImplementedError):
            backend.new_handle(1, 2, 16)
        with pytest.raises(NotImplementedError):
            backend.decode_step(np.zeros((1, 1, 4, 16), np.float32), None)

    def test_needs_an_attention_system(self):
        with pytest.raises(TypeError):
            AnalyticalBackend(object())

    def test_runner_requires_the_paged_backend(self, a100):
        from repro.attn.runner import ModelRunner
        from repro.core.attention import BitDecoding
        from repro.model.config import TINY
        from repro.pages.allocator import PageAllocator
        from repro.pages.page_table import PageTable

        kernel = BitDecoding(BitDecodingConfig(bits=4, wn=1), a100)
        table = PageTable(PageAllocator(8), page_size=kernel.config.residual_block_size)
        with pytest.raises(TypeError, match="paged-bit"):
            ModelRunner(TINY, AnalyticalBackend(kernel), table, n_slots=2)


class TestHandles:
    def test_paged_handle_tracks_seq_len(self, rng):
        backend = PagedBitBackend(BitDecodingConfig(bits=4, wn=1), n_pages=8)
        handle = backend.new_handle(1, 2, 16)
        assert handle.seq_len == 0
        k = rng.standard_normal((1, 2, 10, 16)).astype(np.float16)
        backend.prefill(None, (k, k), handle)
        assert handle.seq_len == 10
        backend.append_kv(
            (np.zeros((1, 2, 16), np.float32), np.zeros((1, 2, 16), np.float32)), handle
        )
        assert handle.seq_len == 11

    def test_paged_handle_block_tables_grow_with_flushes(self, rng):
        config = BitDecodingConfig(bits=4, wn=1)  # N_r = 32
        backend = PagedBitBackend(config, n_pages=16)
        handle = backend.new_handle(1, 2, 16)
        seqh = handle.seqs[0]
        k = rng.standard_normal((1, 2, 70, 16)).astype(np.float16)
        backend.prefill(None, (k, k), handle)
        assert seqh.seq_len == 70
        assert seqh.n_blocks == 2 and seqh.res_len == 6
        assert len(seqh.block_ids) == 2
        # Pages back the packed part through the shared allocator.
        assert handle.store.table.allocator.used_pages == 3  # ceil(70/32)


class TestShimsRemoved:
    """The 0.2-era ``BitDecoding``/``BitKVCache`` re-exports are gone in 0.4:
    the classes live in ``repro.core.attention`` / the engine cache modules."""

    def test_repro_core_reexports_removed(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.BitDecoding
        with pytest.raises(AttributeError):
            repro.core.BitKVCache
        assert "BitDecoding" not in repro.core.__all__

    def test_repro_reexports_removed(self):
        import repro

        with pytest.raises(AttributeError):
            repro.BitDecoding
        with pytest.raises(AttributeError):
            repro.BitKVCache
        assert "BitKVCache" not in repro.__all__

    def test_unknown_core_attribute_still_raises(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.NoSuchThing
