"""Tiered page store: bijection, migration pricing, bit-exact content moves."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import BitDecodingConfig
from repro.core.residual_kernel import flush_blocks
from repro.model.memory import transfer_ms
from repro.pages.allocator import EvictionPolicy, OutOfPagesError, PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore, TierObserver


class _ArrayStore(TierObserver):
    """One int64 of 'content' per frame; migrations must preserve it."""

    def __init__(self, n_frames):
        self.data = np.arange(n_frames, dtype=np.int64)

    def copy_frame(self, src, dst):
        self.data[dst] = self.data[src]

    def exchange_frames(self, a, b):
        self.data[[a, b]] = self.data[[b, a]]


class _RetainSet(EvictionPolicy):
    def __init__(self, pages=()):
        self.pages = set(pages)

    def retains(self, page):
        return page in self.pages

    def page_evicted(self, page):
        self.pages.discard(page)


def _store(device=2, host=3, disk=0, nbytes=1000.0):
    alloc = PageAllocator(device + host + disk)
    tiers = TieredPageStore(alloc, device, host, disk, page_nbytes=nbytes)
    obs = _ArrayStore(alloc.n_pages)
    tiers.add_observer(obs)
    return alloc, tiers, obs


def _content_intact(alloc, tiers, obs):
    """Every live page's content must sit at its current frame, untouched."""
    for page in range(alloc.n_pages):
        if alloc.refcount(page) > 0 or alloc.is_cached(page):
            assert obs.data[tiers.frame_of(page)] == page


class TestGeometry:
    def test_identity_bijection_at_birth(self):
        _, tiers, _ = _store(device=2, host=2, disk=1)
        assert [tiers.frame_of(p) for p in range(5)] == [0, 1, 2, 3, 4]
        assert [tiers.tier_of(p) for p in range(5)] == [
            "device", "device", "host", "host", "disk",
        ]
        assert tiers.resident(1) and not tiers.resident(2)
        np.testing.assert_array_equal(tiers.frames_of([3, 0]), [3, 0])

    def test_pool_must_match_tier_total(self):
        with pytest.raises(ValueError, match="tier total"):
            TieredPageStore(PageAllocator(4), 2, 3)

    def test_device_tier_required(self):
        with pytest.raises(ValueError, match="device_pages"):
            TieredPageStore(PageAllocator(3), 0, 3)


class TestMigration:
    def test_fault_promotes_and_prices_both_legs(self):
        alloc, tiers, obs = _store(device=2, host=2)
        alloc.allocate_many(4)
        tiers.start_step()
        ms = tiers.ensure_resident([2])
        assert tiers.resident(2)
        # The displaced live device page rides the exchange to page 2's
        # old host frame — both transfer legs are priced and counted.
        expected = transfer_ms(1000.0, "host", "device") + transfer_ms(1000.0, "device", "host")
        assert ms == pytest.approx(expected)
        assert tiers.step_fault_ms == pytest.approx(expected)
        assert tiers.step_prefetch_ms == 0.0
        assert tiers.faults == 1
        assert tiers.h2d_bytes == 1000 and tiers.d2h_bytes == 1000
        _content_intact(alloc, tiers, obs)

    def test_prefetch_books_the_overlappable_bucket(self):
        alloc, tiers, _ = _store(device=2, host=2)
        alloc.allocate_many(4)
        tiers.start_step()
        tiers.ensure_resident([3], prefetch=True)
        assert tiers.step_prefetch_ms > 0.0
        assert tiers.step_fault_ms == 0.0
        assert tiers.prefetched_pages == 1 and tiers.faults == 0

    def test_resident_pages_promote_for_free(self):
        alloc, tiers, _ = _store()
        alloc.allocate_many(2)
        assert tiers.ensure_resident([0, 1]) == 0.0
        assert tiers.faults == 0 and tiers.h2d_bytes == 0

    def test_promotion_overwrites_garbage_frame_cheaply(self):
        alloc, tiers, obs = _store(device=2, host=2)
        pages = alloc.allocate_many(4)
        alloc.release(pages[0])  # frame 0 now holds dead content
        tiers.start_step()
        ms = tiers.ensure_resident([3])
        # One leg only: nothing worth saving rode back to the host frame.
        assert ms == pytest.approx(transfer_ms(1000.0, "host", "device"))
        assert tiers.frame_of(3) == 0
        assert tiers.d2h_bytes == 0
        _content_intact(alloc, tiers, obs)

    def test_demote_then_promote_is_bit_exact(self):
        alloc, tiers, obs = _store(device=2, host=2)
        alloc.allocate_many(4)
        tiers.start_step()
        tiers.demote([0, 1])
        assert not tiers.resident(0) and not tiers.resident(1)
        assert tiers.demoted_pages == 2
        assert tiers.step_prefetch_ms > 0.0  # demotion overlaps compute
        tiers.ensure_resident([0, 1], prefetch=True)
        assert tiers.resident(0) and tiers.resident(1)
        _content_intact(alloc, tiers, obs)

    def test_disk_tier_prices_nvme_and_counts_bytes(self):
        alloc, tiers, obs = _store(device=1, host=1, disk=1)
        alloc.allocate_many(3)
        tiers.start_step()
        ms = tiers.ensure_resident([2])
        expected = transfer_ms(1000.0, "disk", "device") + transfer_ms(1000.0, "device", "disk")
        assert ms == pytest.approx(expected)
        assert tiers.disk_bytes == 2000
        _content_intact(alloc, tiers, obs)

    def test_demote_needs_a_backing_tier(self):
        alloc = PageAllocator(2)
        tiers = TieredPageStore(alloc, 2, 0)
        alloc.allocate_many(2)
        with pytest.raises(RuntimeError, match="no host/disk frames"):
            tiers.demote([0])


class TestVictimSelection:
    def test_parked_page_preferred_over_live(self):
        alloc, tiers, obs = _store(device=2, host=1)
        pages = alloc.allocate_many(3)
        alloc.register(_RetainSet([pages[0]]))
        alloc.release(pages[0])  # parked in the cached pool, frame 0
        assert alloc.is_cached(pages[0])
        tiers.touch([pages[1]])
        tiers.start_step()
        tiers.ensure_resident([2])
        assert tiers.frame_of(2) == 0
        # The parked page's content survived the exchange off-device.
        assert tiers.tier_of(pages[0]) == "host"
        assert alloc.is_cached(pages[0])
        _content_intact(alloc, tiers, obs)

    def test_pinned_pages_victimized_last(self):
        alloc, tiers, obs = _store(device=2, host=2)
        alloc.allocate_many(4)
        tiers.touch([0, 1])  # LRU order: 0 oldest
        tiers.start_step()
        tiers.pin([0])
        tiers.ensure_resident([2])
        # Without the pin the LRU victim would be page 0.
        assert tiers.resident(0)
        assert tiers.tier_of(1) == "host"
        _content_intact(alloc, tiers, obs)

    def test_start_step_resets_buckets_and_pins(self):
        alloc, tiers, _ = _store(device=2, host=2)
        alloc.allocate_many(4)
        tiers.start_step()
        tiers.ensure_resident([2])
        assert tiers.step_fault_ms > 0.0
        tiers.start_step()
        assert tiers.step_fault_ms == 0.0 and tiers.step_prefetch_ms == 0.0
        assert tiers.fault_ms_total > 0.0  # cumulative totals persist


class TestPolicyHooks:
    def test_released_page_becomes_garbage_victim(self):
        alloc, tiers, obs = _store(device=1, host=1)
        pages = alloc.allocate_many(2)
        tiers.touch([pages[0]])
        alloc.release(pages[0])
        tiers.start_step()
        tiers.ensure_resident([pages[1]])
        # Dead content was overwritten in place, nothing was exchanged out.
        assert tiers.frame_of(pages[1]) == 0
        assert tiers.d2h_bytes == 0
        assert obs.data[0] == pages[1]

    def test_resident_live_pages_counts_parked_content(self):
        alloc, tiers, _ = _store(device=2, host=1)
        pages = alloc.allocate_many(2)
        assert tiers.resident_live_pages == 2
        alloc.register(_RetainSet([pages[0]]))
        alloc.release(pages[0])
        assert tiers.resident_live_pages == 2  # parked content still live
        alloc.release(pages[1])
        assert tiers.resident_live_pages == 1


CONFIG = BitDecodingConfig(bits=4, wn=1)
NR = CONFIG.residual_block_size


class _World:
    """A paged cache over a tiered (or flat) pool plus its page table."""

    def __init__(self, tiered, n_pages=12, device=3):
        from repro.attn.paged import PagedBitKVCache

        self.alloc = PageAllocator(n_pages)
        self.table = PageTable(self.alloc, page_size=NR)
        self.tiers = (
            TieredPageStore(self.alloc, device, n_pages - device, page_nbytes=64.0)
            if tiered
            else None
        )
        self.cache = PagedBitKVCache(
            CONFIG, hkv=2, head_dim=16, table=self.table, tiers=self.tiers, n_slots=8
        )


class TestTieredCacheProperty:
    """Random admit/append/swap-out/swap-in/release schedules: the tiered
    cache must dequantize bit-identically to a flat shadow pool driven by
    the same logical operations — migrations never lose or corrupt packed
    words, and swapped pages come back bit-exact through ``reattach``."""

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2**16 - 1)),
            min_size=1,
            max_size=30,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_schedule_matches_flat_shadow(self, ops, seed):
        rng = np.random.default_rng(seed)
        tiered, flat = _World(tiered=True), _World(tiered=False)
        seqs = []  # [t_handle, f_handle, seq_len, swapped, stash]
        for code, param in ops:
            if code == 0 and len(seqs) < 4:
                t_seq = tiered.table.add_sequence(0)
                f_seq = flat.table.add_sequence(0)
                assert t_seq == f_seq
                seqs.append([tiered.cache.adopt(t_seq), flat.cache.adopt(f_seq), 0, False, None])
            elif not seqs:
                continue
            elif code == 1:
                state = seqs[param % len(seqs)]
                if state[3]:
                    continue
                n = 1 + param % (2 * NR)
                rows = rng.standard_normal((2, 2, n, 16)).astype(np.float16)
                try:
                    tiered.table.extend_sequence(state[0].seq_id, n)
                except OutOfPagesError:
                    with pytest.raises(OutOfPagesError):
                        flat.table.extend_sequence(state[1].seq_id, n)
                    continue
                flat.table.extend_sequence(state[1].seq_id, n)
                tiered.cache.write_rows(state[0], rows[0], rows[1])
                flat.cache.write_rows(state[1], rows[0], rows[1])
                state[2] += n
            elif code == 2:
                state = seqs[param % len(seqs)]
                if state[3]:
                    continue
                handle = state[0]
                n_res = handle.res_len
                state[4] = (
                    np.array(tiered.cache.res_k[handle.slot][:, :n_res]),
                    np.array(tiered.cache.res_v[handle.slot][:, :n_res]),
                )
                seq_id = handle.seq_id
                tiered.cache.free_slot(handle)
                tiered.tiers.demote(tiered.table.sequences[seq_id].pages)
                state[0] = seq_id
                state[3] = True
            elif code == 3:
                state = seqs[param % len(seqs)]
                if not state[3]:
                    continue
                rk, rv = state[4]
                state[0] = tiered.cache.reattach(state[0], state[2], rk, rv)
                tiered.tiers.ensure_resident(
                    tiered.table.sequences[state[0].seq_id].pages,
                    prefetch=bool(param % 2),
                )
                state[3], state[4] = False, None
            elif code == 4:
                state = seqs.pop(param % len(seqs))
                if state[3]:
                    tiered.table.release_sequence(state[0])
                else:
                    tiered.cache.release(state[0])
                flat.cache.release(state[1])
        for state in seqs:
            if state[3]:
                rk, rv = state[4]
                state[0] = tiered.cache.reattach(state[0], state[2], rk, rv)
                state[3] = False
        for t_handle, f_handle, seq_len, _, _ in seqs:
            assert t_handle.seq_len == f_handle.seq_len == seq_len
            kt, vt = tiered.cache.dequant_group([t_handle])
            kf, vf = flat.cache.dequant_group([f_handle])
            np.testing.assert_array_equal(kt, kf)
            np.testing.assert_array_equal(vt, vf)
            rkt, rvt = tiered.cache.residual_group([t_handle])
            rkf, rvf = flat.cache.residual_group([f_handle])
            np.testing.assert_array_equal(rkt, rkf)
            np.testing.assert_array_equal(rvt, rvf)


class TestRaggedGroupWrites:
    """``write_rows_group`` at ragged fills against an independent oracle:
    each handle's pages must hold exactly :func:`flush_blocks` of its own
    complete token stream, and its slot the stream's tail.  Pinned under a
    tier store with scrambled frames (a write that confused page ids with
    pool indices would land in the wrong frame) and with a copy-on-write
    forked member (its first flush lands on a page it shares)."""

    @staticmethod
    def _check(world, handle, k_all, v_all):
        nb, rem = divmod(k_all.shape[1], NR)
        assert handle.seq_len == k_all.shape[1]
        cache = world.cache
        np.testing.assert_array_equal(cache.res_k[handle.slot][:, :rem], k_all[:, nb * NR :])
        np.testing.assert_array_equal(cache.res_v[handle.slot][:, :rem], v_all[:, nb * NR :])
        if not nb:
            return
        oracle = flush_blocks(
            *(rows[:, : nb * NR].reshape(2, nb, NR, 16)[None] for rows in (k_all, v_all)), CONFIG
        )
        kp, vp = oracle.k_params, oracle.v_params
        parts = (oracle.k_words, oracle.v_words, kp.scale, kp.zero, vp.scale, vp.zero)
        frames = world.tiers.frames_of(handle.block_ids)
        for pool, part in zip(cache._pools(), parts):
            np.testing.assert_array_equal(pool[frames], part[0].swapaxes(0, 1))
        # Reads after each round extend the memo instead of rebuilding it.
        for got, want in zip(cache.dequant_group([handle]), oracle.dequant_kv(CONFIG)):
            np.testing.assert_array_equal(got, want)

    @given(
        starts=st.lists(st.integers(0, 3 * NR), min_size=1, max_size=3),
        sizes=st.lists(st.sampled_from([1, NR - 1, NR, 2 * NR + 3, 5]), min_size=1, max_size=3),
        fork=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    # One sequence, two block-aligned writes: write_rows_group at G == 1.
    @example(starts=[0], sizes=[2 * NR, NR + 5], fork=False, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_pages_and_slots_match_each_streams_flush(self, starts, sizes, fork, seed):
        rng = np.random.default_rng(seed)
        world = _World(tiered=True, n_pages=48, device=6)
        handles, streams = [], []
        for start in starts:
            handle = world.cache.adopt(world.table.add_sequence(start))
            k, v = rng.standard_normal((2, 2, start, 16)).astype(np.float16)
            world.cache.write_rows(handle, k, v)
            handles.append(handle)
            streams.append((k, v))
        if fork:
            handles.append(world.cache.fork(handles[0]))
            streams.append(streams[0])
        for n in sizes:
            for handle in handles:
                world.table.extend_sequence(handle.seq_id, n)
                world.tiers.demote(world.table.sequences[handle.seq_id].pages[:2])
            k, v = rng.standard_normal((2, len(handles), 2, n, 16)).astype(np.float16)
            world.cache.write_rows_group(handles, k, v)
            for g, handle in enumerate(handles):
                k_all, v_all = streams[g]
                streams[g] = (np.concatenate([k_all, k[g]], 1), np.concatenate([v_all, v[g]], 1))
                self._check(world, handle, *streams[g])
