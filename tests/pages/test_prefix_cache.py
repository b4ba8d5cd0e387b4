"""Prefix cache: content keys -> shared physical pages, LRU eviction."""

import pytest

from repro.pages.allocator import PageAllocator
from repro.pages.prefix_cache import PrefixCache


def _cache(n_pages=8):
    alloc = PageAllocator(n_pages)
    return alloc, PrefixCache(alloc)


class TestInsertLookup:
    def test_insert_and_lookup(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        assert cache.insert(("p", 0), page) == page
        assert cache.match([("p", 0)]) == [page]
        assert len(cache) == 1

    def test_first_writer_wins(self):
        alloc, cache = _cache()
        a, b = alloc.allocate(), alloc.allocate()
        assert cache.insert(("p", 0), a) == a
        # Second producer of the same content keeps the canonical page.
        assert cache.insert(("p", 0), b) == a
        assert cache.match([("p", 0)]) == [a]
        assert len(cache) == 1

    def test_insert_marks_cacheable(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        cache.insert(("p", 0), page)
        alloc.release(page)
        # The page parks in the cached pool instead of going truly free.
        assert alloc.is_cached(page)
        assert cache.match([("p", 0)]) == [page]

    def test_recycled_page_drops_stale_key(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        cache.insert(("old",), page)
        # Same physical page re-registered under new content: the stale
        # mapping must not resolve anymore.
        cache.insert(("new",), page)
        assert cache.match([("old",)]) == []
        assert cache.match([("new",)]) == [page]

    def test_registers_as_eviction_policy(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        cache.insert(("p", 0), page)
        assert cache.retains(page)
        # Registering the same cache twice is a policy-protocol violation.
        with pytest.raises(ValueError):
            alloc.register(cache)


class TestMatch:
    def test_longest_prefix_stops_at_first_miss(self):
        alloc, cache = _cache()
        pages = alloc.allocate_many(3)
        cache.insert(("k", 0), pages[0])
        cache.insert(("k", 1), pages[1])
        # ("k", 2) not inserted; ("k", 3) inserted but unreachable.
        cache.insert(("k", 3), pages[2])
        hit = cache.match([("k", 0), ("k", 1), ("k", 2), ("k", 3)])
        assert hit == [pages[0], pages[1]]

    def test_match_empty_on_cold_cache(self):
        _, cache = _cache()
        assert cache.match([("k", 0)]) == []

    def test_match_is_pure(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        cache.insert(("k", 0), page)
        before = alloc.refcount(page)
        cache.match([("k", 0)])
        assert alloc.refcount(page) == before


class TestEviction:
    def test_pressure_eviction_unregisters(self):
        alloc, cache = _cache(n_pages=2)
        pages = alloc.allocate_many(2)
        cache.insert(("k", 0), pages[0])
        cache.insert(("k", 1), pages[1])
        alloc.release_many(pages)
        # Pool is all cached; two fresh allocations must evict both
        # entries in LRU order and notify the cache.
        got = alloc.allocate_many(2)
        assert got == pages
        assert len(cache) == 0
        assert cache.evictions == 2
        assert cache.match([("k", 0)]) == []

    def test_referenced_cached_page_survives_pressure(self):
        alloc, cache = _cache(n_pages=2)
        pages = alloc.allocate_many(2)
        cache.insert(("k", 0), pages[0])
        cache.insert(("k", 1), pages[1])
        alloc.release(pages[1])  # pages[0] still referenced
        alloc.allocate()  # evicts pages[1], the only refcount-0 entry
        assert cache.match([("k", 0)]) == [pages[0]]
        assert cache.match([("k", 1)]) == []

    def test_forget_page(self):
        alloc, cache = _cache()
        page = alloc.allocate()
        cache.insert(("k", 0), page)
        alloc.release(page)
        cache.forget_page(page)
        assert cache.match([("k", 0)]) == []
        assert not alloc.is_cached(page)
        assert cache.evictions == 0  # explicit forget is not an eviction

    def test_forget_unknown_page_is_noop(self):
        _, cache = _cache()
        cache.forget_page(3)

    def test_hit_resurrects_cached_page(self):
        alloc, cache = _cache(n_pages=2)
        page = alloc.allocate()
        cache.insert(("k", 0), page)
        alloc.release(page)
        hit = cache.match([("k", 0)])
        assert hit == [page]
        alloc.acquire(hit[0])  # admission maps the hit page
        assert alloc.refcount(page) == 1
        assert not alloc.is_cached(page)
        # Still registered: the next request can hit it too.
        assert cache.match([("k", 0)]) == [page]
