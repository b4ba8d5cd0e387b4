"""Page recycling must never leak stale packed words between sequences.

The paged pool hands preempted sequences' pages straight back to the
allocator; a recycled page still physically holds the victim's packed
words until the next flush overwrites it.  The invariant under test:
whatever admit/preempt/resume schedule ran before, every *live*
sequence's reconstruction (packed dequant + residual) is bit-identical
to a fresh pool fed only that sequence's rows — i.e. block tables never
alias and recycled pages never bleed through.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attn.paged import PagedBitKVCache
from repro.core.config import BitDecodingConfig

CONFIG = BitDecodingConfig(bits=4, wn=1)  # N_r = 32
NR = CONFIG.residual_block_size
HKV, D = 2, 16
N_PAGES = 12
N_SLOTS = 4


def _rows(rng, n):
    k = rng.standard_normal((HKV, n, D)).astype(np.float16)
    v = rng.standard_normal((HKV, n, D)).astype(np.float16)
    return k, v


def _read(handle):
    """``(packed, residual)`` K/V pairs of one sequence, read as a group of one."""
    view = handle.store.group_view([handle])
    return view.dequant_kv(), view.residual_kv()


def _reference_reconstruction(k_rows, v_rows):
    """A fresh single-sequence pool fed the same rows, end to end."""
    store = PagedBitKVCache(CONFIG, HKV, D, n_pages=N_PAGES, n_slots=1)
    handle = store.add_sequence()
    n = k_rows.shape[1]
    if n:
        store.reserve(handle, n)
        store.write_rows(handle, k_rows, v_rows)
    return _read(handle)


# One op per draw: (kind, amount). "write" appends `amount` tokens to a
# round-robin live sequence, "admit" starts a new one, "fork" clones one
# (sharing every page copy-on-write), "preempt" releases the oldest live
# one (recycling its pages for whoever comes next).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "write", "fork", "preempt"]),
        st.integers(min_value=1, max_value=NR + NR // 2),
    ),
    min_size=4,
    max_size=14,
)


class TestPageRecycling:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, seed=st.integers(min_value=0, max_value=2**16))
    def test_live_sequences_never_see_stale_words(self, ops, seed):
        rng = np.random.default_rng(seed)
        store = PagedBitKVCache(CONFIG, HKV, D, n_pages=N_PAGES, n_slots=N_SLOTS)
        live = []  # (handle, k_rows, v_rows) with rows the ground truth

        for kind, amount in ops:
            if kind == "admit" and len(live) < N_SLOTS:
                live.append(
                    (store.add_sequence(), np.zeros((HKV, 0, D), np.float16),
                     np.zeros((HKV, 0, D), np.float16))
                )
            elif kind == "write" and live:
                idx = amount % len(live)
                handle, k_all, v_all = live[idx]
                alloc = store.table.allocator
                # Pages this sequence shares with a fork: flushing into one
                # copy-on-writes it, drawing a fresh page, so budget them
                # out of the free pool before sizing the write.
                shared = sum(
                    1
                    for p in store.table.sequences[handle.seq_id].pages
                    if alloc.refcount(p) > 1
                )
                budget = alloc.free_pages - shared
                pad = handle.seq_len % NR
                take = min(amount, budget * NR + (NR - pad) % NR) if budget >= 0 else 0
                if take <= 0:
                    continue
                k_new, v_new = _rows(rng, take)
                store.reserve(handle, take)
                store.write_rows(handle, k_new, v_new)
                live[idx] = (
                    handle,
                    np.concatenate([k_all, k_new], axis=1),
                    np.concatenate([v_all, v_new], axis=1),
                )
            elif kind == "fork" and live and len(live) < N_SLOTS:
                handle, k_all, v_all = live[amount % len(live)]
                child = store.fork(handle)
                # The child inherits the parent's history as ground truth.
                live.append((child, k_all.copy(), v_all.copy()))
            elif kind == "preempt" and live:
                handle, _, _ = live.pop(0)
                store.release(handle)  # pages go straight back to the pool

        for handle, k_all, v_all in live:
            (k_hat, v_hat), (k_res, v_res) = _read(handle)
            (k_ref, v_ref), (k_res_ref, v_res_ref) = _reference_reconstruction(k_all, v_all)
            np.testing.assert_array_equal(k_hat, k_ref)
            np.testing.assert_array_equal(v_hat, v_ref)
            np.testing.assert_array_equal(k_res, k_res_ref)
            np.testing.assert_array_equal(v_res, v_res_ref)

    def test_resumed_sequence_overwrites_recycled_pages(self, rng):
        """Deterministic regression: preempt, re-admit with different rows,
        and check both the recycled page content and the residual slot."""
        store = PagedBitKVCache(CONFIG, HKV, D, n_pages=4, n_slots=2)
        first = store.add_sequence()
        k1, v1 = _rows(rng, NR + 3)
        store.reserve(first, NR + 3)
        store.write_rows(first, k1, v1)
        pages_before = list(store.table.sequences[first.seq_id].pages)
        store.release(first)

        second = store.add_sequence()
        k2, v2 = _rows(rng, NR + 3)
        store.reserve(second, NR + 3)
        store.write_rows(second, k2, v2)
        assert set(second.block_ids) & set(pages_before)

        (k_ref, v_ref), (kr_ref, vr_ref) = _reference_reconstruction(k2, v2)
        (k_hat, v_hat), (k_res, v_res) = _read(second)
        np.testing.assert_array_equal(k_hat, k_ref)
        np.testing.assert_array_equal(v_hat, v_ref)
        np.testing.assert_array_equal(k_res, kr_ref)
        np.testing.assert_array_equal(v_res, vr_ref)


class TestWriteShapes:
    @pytest.mark.parametrize("seam", ["write_rows", "append_rows", "write_rows_group"])
    @pytest.mark.parametrize("hkv, d", [(1, D), (HKV, 1)], ids=["wrong_hkv", "wrong_head_dim"])
    def test_wrong_shaped_rows_raise_instead_of_broadcasting(self, seam, hkv, d):
        """Rows with one head (or a unit head dim) would broadcast into
        every head (or channel); each write seam must refuse them."""
        store = PagedBitKVCache(CONFIG, HKV, D, n_pages=N_PAGES, n_slots=N_SLOTS)
        handle = store.add_sequence()
        store.reserve(handle, 3)
        rows = np.ones((1, hkv, 3, d), np.float16)
        target, arg = {
            "write_rows": (handle, rows[0]),
            "append_rows": ([handle], rows[:, :, 0]),
            "write_rows_group": ([handle], rows),
        }[seam]
        with pytest.raises(ValueError, match=r"K rows \(.*\) and V rows \(.*\) must both be"):
            getattr(store, seam)(target, arg, arg)
        assert handle.seq_len == 0


class TestCopyOnWriteDivergence:
    def test_fork_then_diverge_is_bit_exact(self, rng):
        """Fork a sequence, write different continuations to both sides,
        and check each against a fresh unshared pool: copy-on-write must
        keep the shared prefix bit-identical while neither side's writes
        bleed into the other."""
        store = PagedBitKVCache(CONFIG, HKV, D, n_pages=N_PAGES, n_slots=N_SLOTS)
        parent = store.add_sequence()
        k0, v0 = _rows(rng, 2 * NR + 5)
        store.reserve(parent, 2 * NR + 5)
        store.write_rows(parent, k0, v0)

        child = store.fork(parent)
        assert child.block_ids == parent.block_ids  # fully shared at fork
        np.testing.assert_array_equal(_read(child)[1][0], _read(parent)[1][0])

        ka, va = _rows(rng, NR + 7)
        store.reserve(parent, NR + 7)
        store.write_rows(parent, ka, va)
        kb, vb = _rows(rng, NR + 2)
        store.reserve(child, NR + 2)
        store.write_rows(child, kb, vb)

        # Divergence happened at the shared partially-filled block.
        assert parent.block_ids[2] != child.block_ids[2]
        assert parent.block_ids[:2] == child.block_ids[:2]

        for handle, (ks, vs) in (
            (parent, (np.concatenate([k0, ka], 1), np.concatenate([v0, va], 1))),
            (child, (np.concatenate([k0, kb], 1), np.concatenate([v0, vb], 1))),
        ):
            (k_hat, v_hat), (k_res, v_res) = _read(handle)
            (k_ref, v_ref), (kr_ref, vr_ref) = _reference_reconstruction(ks, vs)
            np.testing.assert_array_equal(k_hat, k_ref)
            np.testing.assert_array_equal(v_hat, v_ref)
            np.testing.assert_array_equal(k_res, kr_ref)
            np.testing.assert_array_equal(v_res, vr_ref)
