"""Page allocator conservation and refcount invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pages.allocator import EvictionPolicy, OutOfPagesError, PageAllocator


class _RetainSet(EvictionPolicy):
    """Test policy: retains an explicit page set, records hook firings."""

    def __init__(self, pages=()):
        self.pages = set(pages)
        self.released = []
        self.evicted = []

    def retains(self, page):
        return page in self.pages

    def page_released(self, page):
        self.released.append(page)

    def page_evicted(self, page):
        self.evicted.append(page)
        self.pages.discard(page)


class TestAllocator:
    def test_initial_state(self):
        alloc = PageAllocator(16)
        assert alloc.free_pages == 16
        assert alloc.used_pages == 0

    def test_allocate_release_cycle(self):
        alloc = PageAllocator(4)
        page = alloc.allocate()
        assert alloc.used_pages == 1
        assert alloc.refcount(page) == 1
        alloc.release(page)
        assert alloc.used_pages == 0
        assert alloc.free_pages == 4

    def test_exhaustion_raises(self):
        alloc = PageAllocator(2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(OutOfPagesError):
            alloc.allocate()

    def test_allocate_many_all_or_nothing(self):
        alloc = PageAllocator(4)
        alloc.allocate()
        with pytest.raises(OutOfPagesError):
            alloc.allocate_many(4)
        # Failed bulk allocation must not leak pages.
        assert alloc.free_pages == 3

    def test_double_release_rejected(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.release(page)
        with pytest.raises(ValueError):
            alloc.release(page)

    def test_release_unallocated_rejected(self):
        with pytest.raises(ValueError):
            PageAllocator(2).release(0)

    def test_unique_page_ids(self):
        alloc = PageAllocator(32)
        pages = alloc.allocate_many(32)
        assert len(set(pages)) == 32

    def test_zero_pool_rejected(self):
        with pytest.raises(ValueError):
            PageAllocator(0)


class TestRefcounts:
    def test_acquire_increments(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.acquire(page)
        assert alloc.refcount(page) == 2
        alloc.release(page)
        assert alloc.refcount(page) == 1
        assert alloc.used_pages == 1
        alloc.release(page)
        assert alloc.refcount(page) == 0
        assert alloc.free_pages == 2

    def test_acquire_unreferenced_uncached_rejected(self):
        alloc = PageAllocator(2)
        with pytest.raises(ValueError):
            alloc.acquire(0)

    def test_shared_page_not_reallocated(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.acquire(page)
        alloc.release(page)  # still held once
        other = alloc.allocate()
        assert other != page
        with pytest.raises(OutOfPagesError):
            alloc.allocate()

    def test_release_many(self):
        alloc = PageAllocator(4)
        pages = alloc.allocate_many(3)
        alloc.release_many(pages)
        assert alloc.free_pages == 4


class TestEvictionPolicy:
    def test_retained_page_parks_and_resurrects(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.register(_RetainSet([page]))
        alloc.release(page)
        assert alloc.is_cached(page)
        assert alloc.free_pages == 2  # cached counts as reclaimable
        alloc.acquire(page)
        assert alloc.refcount(page) == 1
        assert not alloc.is_cached(page)

    def test_eviction_is_lru_and_fires_hook(self):
        alloc = PageAllocator(3)
        pages = alloc.allocate_many(3)
        policy = _RetainSet(pages)
        alloc.register(policy)
        # Release in order a, b, c -> a is least recently released.
        for p in pages:
            alloc.release(p)
        # Pool has no truly-free pages; allocation must evict pages[0] first.
        got = alloc.allocate()
        assert got == pages[0]
        assert policy.evicted == [pages[0]]
        assert alloc.evictions == 1

    def test_page_released_fires_for_every_policy(self):
        alloc = PageAllocator(2)
        a, b = _RetainSet(), _RetainSet()
        alloc.register(a)
        alloc.register(b)
        page = alloc.allocate()
        alloc.release(page)
        assert a.released == [page] and b.released == [page]
        assert not alloc.is_cached(page)  # neither policy retains it

    def test_reconsider_frees_unretained_without_hook(self):
        alloc = PageAllocator(1)
        page = alloc.allocate()
        policy = _RetainSet([page])
        alloc.register(policy)
        alloc.release(page)
        assert alloc.is_cached(page)
        policy.pages.discard(page)
        alloc.reconsider(page)
        assert not alloc.is_cached(page)
        assert policy.evicted == []
        # Page is plain-free again.
        assert alloc.allocate() == page

    def test_any_retaining_policy_parks(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.register(_RetainSet())  # retains nothing
        alloc.register(_RetainSet([page]))
        alloc.release(page)
        assert alloc.is_cached(page)

    def test_double_register_rejected(self):
        alloc = PageAllocator(2)
        policy = _RetainSet()
        alloc.register(policy)
        with pytest.raises(ValueError):
            alloc.register(policy)

    def test_cached_page_not_double_counted(self):
        alloc = PageAllocator(2)
        page = alloc.allocate()
        alloc.register(_RetainSet([page]))
        alloc.release(page)
        assert alloc.free_pages + alloc.used_pages == 2


class TestRemovedShims:
    """The 0.2-era exclusive-ownership / cacheable shims are gone in 0.4."""

    def test_free_removed(self):
        assert not hasattr(PageAllocator(2), "free")
        assert not hasattr(PageAllocator(2), "free_many")

    def test_cacheable_trio_removed(self):
        alloc = PageAllocator(2)
        assert not hasattr(alloc, "mark_cacheable")
        assert not hasattr(alloc, "unmark_cacheable")
        with pytest.raises(TypeError):
            PageAllocator(2, on_evict=lambda p: None)


class TestConservationProperty:
    @given(ops=st.lists(st.integers(0, 2), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_free_plus_used_constant(self, ops):
        """allocate / acquire / release in any order conserve the pool.

        `held` is a multiset of outstanding references; the allocator's
        refcounts must track it exactly, never go negative, and allocate
        must never hand out a page that still has references.
        """
        alloc = PageAllocator(16)
        held = []
        for op in ops:
            if op == 0:
                try:
                    page = alloc.allocate()
                    assert page not in held  # never recycle a referenced page
                    held.append(page)
                except OutOfPagesError:
                    assert alloc.free_pages == 0
            elif op == 1 and held:
                page = held[len(held) // 2]
                alloc.acquire(page)
                held.append(page)
            elif op == 2 and held:
                page = held.pop()
                alloc.release(page)
            for page in set(held):
                assert alloc.refcount(page) == held.count(page)
                assert alloc.refcount(page) > 0
            assert alloc.free_pages + alloc.used_pages == 16
            assert alloc.used_pages == len(set(held))


class _EagerAllocator(PageAllocator):
    """The pre-lazy allocator: the whole pool materialised as the LIFO stack."""

    def __init__(self, n_pages):
        super().__init__(n_pages)
        self._free = list(range(n_pages - 1, -1, -1))
        self._fresh = n_pages


class TestLazyFreeList:
    def test_huge_pool_constructs_in_constant_time(self):
        alloc = PageAllocator(10**8)  # eager: ~4 GB of ints
        assert alloc.free_pages == 10**8 and alloc.used_pages == 0
        assert [alloc.allocate() for _ in range(3)] == [0, 1, 2]
        assert alloc.free_pages == 10**8 - 3

    @given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63)), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_same_ids_in_the_same_order_as_the_eager_list(self, ops):
        """allocate / acquire / release / reconsider, with odd pages retained
        so the pool parks and evicts: the lazy allocator and the eager model
        hand out identical ids and agree on every count at every step."""
        lazy, eager = PageAllocator(6), _EagerAllocator(6)
        policies = [_RetainSet({1, 3, 5}), _RetainSet({1, 3, 5})]
        for alloc, policy in zip((lazy, eager), policies):
            alloc.register(policy)
        held = []
        for op, pick in ops:
            if op == 0:
                try:
                    held.append(lazy.allocate())
                except OutOfPagesError:
                    with pytest.raises(OutOfPagesError):
                        eager.allocate()
                    continue
                assert eager.allocate() == held[-1]
            elif op == 1 and (held or lazy._cached):
                pool = held + list(lazy._cached)  # live, or parked -> resurrected
                page = pool[pick % len(pool)]
                lazy.acquire(page), eager.acquire(page)
                held.append(page)
            elif op == 2 and held:
                page = held.pop(pick % len(held))
                lazy.release(page), eager.release(page)
            elif op == 3 and lazy._cached:
                page = list(lazy._cached)[pick % len(lazy._cached)]
                for alloc, policy in zip((lazy, eager), policies):
                    policy.pages.discard(page)
                    alloc.reconsider(page)
            assert lazy.free_pages == eager.free_pages
            assert lazy.refcounts == eager.refcounts
            assert list(lazy._cached) == list(eager._cached)
            assert policies[0].evicted == policies[1].evicted
            assert lazy.evictions == eager.evictions


class _PerPageAllocator(PageAllocator):
    """The per-page release loop ``release_many`` replaced: every page goes
    through its own refcount booking, retention check, park-or-free and
    round of ``page_released`` hooks before the next page is looked at."""

    def release(self, page):
        refs = self._refs.get(page)
        if refs is None:
            raise ValueError(f"page {page} is not allocated")
        self._refcount_changed(page, refs, refs - 1)
        if refs > 1:
            self._refs[page] = refs - 1
            return
        del self._refs[page]
        if self._retained(page):
            self._cached[page] = None
        else:
            self._free.append(page)
        for policy in self._policies:
            policy.page_released(page)

    def release_many(self, pages):
        for page in pages:
            self.release(page)


class _Log(EvictionPolicy):
    """Records each release hook with the page's parked state at the call,
    the way the tier store reads ``is_cached`` in its hook."""

    def __init__(self, alloc):
        self.alloc, self.log = alloc, []

    def page_released(self, page):
        self.log.append((page, self.alloc.is_cached(page)))


def _state(alloc):
    return (
        list(alloc._free),
        alloc._fresh,
        list(alloc._cached),
        dict(alloc._refs),
        dict(alloc._mapped),
        alloc.mismatched_pages,
        alloc.evictions,
    )


class TestOnePassReleaseMany:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 4), st.lists(st.integers(0, 15), max_size=8)), max_size=60
        ),
        retained=st.sets(st.integers(0, 15)),
    )
    @settings(max_examples=150, deadline=None)
    def test_lock_step_with_the_per_page_loop(self, ops, retained):
        """Random allocate / acquire (shared pages) / map / release_many
        lists, duplicates and unallocated pages included, over a retaining
        policy (pages park and evict) and two logging ones: the one-pass
        release ends in the same free list, parked LRU, refcounts, mapping
        books and counters, and every policy's hook log matches, after
        every operation and on every raise.  Only the interleaving of hooks
        across policies may differ."""
        sides = []
        for cls in (PageAllocator, _PerPageAllocator):
            alloc = cls(12)
            policies = (_Log(alloc), _RetainSet(retained), _Log(alloc))
            for policy in policies:
                alloc.register(policy)
            sides.append((alloc, policies))
        for op, picks in ops:
            outcomes = []
            for alloc, _ in sides:
                live = sorted(alloc._refs)
                chosen = [live[p % len(live)] for p in picks] if live else []
                try:
                    if op == 0:
                        alloc.allocate_many(len(picks) % 4)
                    elif op == 1:
                        for page in chosen:
                            alloc.acquire(page)
                    elif op == 2:
                        alloc.map(chosen)
                    elif op == 3:
                        alloc.release_many(chosen)
                    else:
                        alloc.release_many(picks)  # raw ids: unallocated ones raise
                    outcomes.append(None)
                except (ValueError, OutOfPagesError) as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
            (a, ours), (b, reference) = sides
            assert _state(a) == _state(b)
            log_a, keep_a, last_a = ours
            log_b, keep_b, last_b = reference
            assert (log_a.log, last_a.log) == (log_b.log, last_b.log)
            assert (keep_a.released, keep_a.evicted) == (keep_b.released, keep_b.evicted)
