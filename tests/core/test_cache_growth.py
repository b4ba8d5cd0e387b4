"""In-place flushes of the contiguous cache, and what they allocate.

``BitKVCache`` keeps its packed tensors and its FP32 reconstruction in
buffers with headroom on the block axis (``residual_kernel.reserve``): a
flush writes just its new block column of packed tensors, and the next
read dequantizes just that column into the reconstruction.  The lock-step oracle
drives it beside :class:`tests.reference_cache.ConcatenatingCache`, which
grows both by ``np.concatenate``, through prefill and flushes that both
write into headroom and outgrow it, and after every flush asserts that

- the reconstruction and every packed tensor equal the reference's bit
  for bit,
- ``BitDecoding.decode`` returns the same bits over either cache,
- a memo hit returns the very same arrays, and no view handed out
  earlier has changed.

The ``tracemalloc`` tests pin what the buffers are for: a flush and the
read after it allocate O(``N_r``) whatever the context, and the first
dequant holds no more than its reconstruction buffers plus one chunk's
temporaries.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import residual_kernel
from repro.core.attention import BitDecoding, BitKVCache
from repro.core.config import BitDecodingConfig

from tests.reference_cache import ConcatenatingCache, ReferenceBitKVCache

_D = 32  # multiple of every fragment-tile extent for bits in {2, 4, 8}

CONFIGS = [
    BitDecodingConfig(bits=bits, granularity=granularity, dequant_method=method)
    for bits in (2, 4, 8)
    for granularity in ("channel", "tensor")
    for method in ("lop3", "cvt")
] + [BitDecodingConfig(version="fp4", fp4_format=fmt) for fmt in ("mxfp4", "nvfp4")]


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint32 if a.dtype.itemsize == 4 else f"u{a.dtype.itemsize}")


def _assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.short_name + "-" + c.dequant_method)
def test_lock_step_with_concatenating_flushes(config):
    arch = "rtx5090" if config.version == "fp4" else "a100"
    engine = BitDecoding(config, arch)
    nr = config.residual_block_size
    rng = np.random.default_rng(nr + config.bits)
    batch, hkv, hq = 2, 2, 4
    # Nine blocks: the first flushes write into headroom, later ones
    # outgrow it (an eighth plus one of nine blocks, or of 9 N_r rows).
    k = rng.standard_normal((batch, hkv, 9 * nr + 3, _D)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, 9 * nr + 3, _D)).astype(np.float16)
    cache = BitKVCache.from_prefill(k, v, config)
    ref = ConcatenatingCache(k, v, config)
    handed_out = []  # (view, its bits when handed out)
    k_bases, word_bases = [], []
    flushes = 0
    while flushes < 4:
        k_new = rng.standard_normal((batch, hkv, _D)).astype(np.float16)
        v_new = rng.standard_normal((batch, hkv, _D)).astype(np.float16)
        flushed = cache.append_token(k_new, v_new)
        assert ref.append_token(k_new, v_new) == flushed
        if not flushed and handed_out:
            continue
        flushes += flushed
        for ours, theirs in zip(cache.packed.arrays, ref.packed.arrays):
            _assert_same_bits(ours, theirs)
        kv = cache.dequant_kv()
        for ours, theirs in zip(kv, ref.dequant_kv()):
            _assert_same_bits(ours, theirs)
        again = cache.dequant_kv()
        assert again[0] is kv[0] and again[1] is kv[1]
        q = rng.standard_normal((batch, 1, hq, _D)).astype(np.float32)
        _assert_same_bits(engine.decode(q, cache), engine.decode(q, ref))
        for view, bits in handed_out:
            assert np.array_equal(_bits(view), bits)
        handed_out += [(view, _bits(view).copy()) for view in kv]
        k_bases.append(kv[0].base)
        word_bases.append(cache.packed.arrays[0].base)
    # Both kinds of buffer took a flush in place and outgrew their
    # headroom at least once.
    for bases in (k_bases, word_bases):
        same = [a is b for a, b in zip(bases, bases[1:])]
        assert any(same) and not all(same)


@pytest.mark.parametrize("bits", [2, 4])
@pytest.mark.parametrize("per_chunk", [3, 40], ids=["block-runs", "whole-heads"])
def test_chunked_dequant_matches_per_block_spec(monkeypatch, bits, per_chunk):
    """Chunks of a few blocks of one head, and chunks of several whole
    heads, reconstruct what the per-block spec does."""
    config = BitDecodingConfig(bits=bits)
    nr = config.residual_block_size
    monkeypatch.setattr(residual_kernel, "_CHUNK_VALUES", per_chunk * nr * _D)
    rng = np.random.default_rng(bits)
    k = rng.standard_normal((2, 3, 7 * nr, _D)).astype(np.float16)
    v = rng.standard_normal((2, 3, 7 * nr, _D)).astype(np.float16)
    cache = BitKVCache.from_prefill(k, v, config)
    ref = ReferenceBitKVCache.from_prefill(k, v, config)
    k_hat, v_hat = cache.dequant_kv()
    for b in range(2):
        for h in range(3):
            k_ref, v_ref = ref.dequantized_packed(b, h)
            assert np.array_equal(k_hat[b, h], k_ref)
            assert np.array_equal(v_hat[b, h], v_ref)


def test_dequant_refuses_an_output_that_would_copy():
    config = BitDecodingConfig(bits=4)
    nr = config.residual_block_size
    k = np.ones((2, 2, nr, _D), np.float16)
    cache = BitKVCache.from_prefill(k, k, config)
    # Heads outer, batch inner: the two axes cannot merge into one view.
    out = tuple(np.empty((2, 2, nr, _D), np.float32).swapaxes(0, 1) for _ in "kv")
    with pytest.raises(ValueError, match="without a copy"):
        cache.packed.dequant_kv(config, out=out)


# --------------------------------------------------------------- allocations

_HKV, _HEAD_DIM = 2, 64
_CONFIG = BitDecodingConfig(bits=4)
_NR = _CONFIG.residual_block_size
#: One block column's reconstruction: K and V, FP32, every head.
_COLUMN_BYTES = 2 * _HKV * _NR * _HEAD_DIM * 4
#: Allowance for what a flush allocates whatever the context: the block
#: column's flush (staging, codes, words, metadata) and its dequant
#: temporaries, each a few times a column, plus interpreter noise.
_FLUSH_SLACK = 4 * _COLUMN_BYTES
#: One dequant chunk's temporaries: about 6 bytes per value (unpacked
#: 16-bit fields and their mask, the uint8 codes, the gathered codes),
#: rounded up.
_CHUNK_BYTES = 8 * residual_kernel._CHUNK_VALUES


def _cache(context: int, rng) -> BitKVCache:
    shape = (1, _HKV, context, _HEAD_DIM)
    k = rng.standard_normal(shape).astype(np.float16)
    v = rng.standard_normal(shape).astype(np.float16)
    return BitKVCache.from_prefill(k, v, _CONFIG)


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flush_peak(context: int) -> int:
    """tracemalloc peak of the one flushing ``append_token`` that follows
    a warm reconstruction at ``context`` tokens, plus the ``dequant_kv``
    after it, which extends the reconstruction by the flushed column."""
    rng = np.random.default_rng(context)
    cache = _cache(context, rng)
    cache.dequant_kv()
    row = (1, _HKV, _HEAD_DIM)
    for _ in range(_NR - 1):
        assert not cache.append_token(*(rng.standard_normal(row).astype(np.float16),) * 2)
    last = rng.standard_normal(row).astype(np.float16)
    flushed, kv = [], []

    def flush_then_read():
        flushed.append(cache.append_token(last, last))
        kv.extend(cache.dequant_kv())

    peak = _peak(flush_then_read)
    assert flushed == [True]
    assert all(view.shape[2] == context + _NR for view in kv)
    return peak


def test_flush_allocates_o_nr_not_o_context():
    """A flush at 16K context and the read after it allocate what they do
    at 4K, to within one block column's reconstruction: the 12K tokens
    between them (12 MiB of reconstruction) are never copied or
    dequantized again."""
    at_4k, at_16k = _flush_peak(4096), _flush_peak(16384)
    assert abs(at_16k - at_4k) <= _COLUMN_BYTES
    assert at_16k <= _COLUMN_BYTES + _FLUSH_SLACK


def test_first_dequant_holds_its_reconstruction_plus_one_chunk():
    """The first dequant after prefill allocates its reconstruction buffers
    (rows plus np.empty headroom) and chunk-sized temporaries, never a
    full-size unpack or code tensor."""
    cache = _cache(16384, np.random.default_rng(0))
    kv = []
    peak = _peak(lambda: kv.extend(cache.dequant_kv()))
    buffers = sum(view.base.nbytes for view in kv)
    assert buffers < 1.2 * sum(view.nbytes for view in kv)
    assert peak <= buffers + _CHUNK_BYTES
