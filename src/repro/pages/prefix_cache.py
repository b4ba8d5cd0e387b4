"""Radix-style prefix cache over the paged low-bit KV store.

Maps content keys of page-aligned, *flushed* packed blocks to physical
page ids, vLLM/SGLang-style.  A key identifies the full token prefix up
to and including its block (equal keys mean equal prefixes), so a
longest-prefix probe is just successive lookups until the first miss.

The cache is an :class:`~repro.pages.allocator.EvictionPolicy`: it
*retains* every page it maps, so when such a page's refcount drops to
zero the allocator parks it in the LRU pool instead of recycling it, and
calls :meth:`page_evicted` when it reclaims one under pressure — the
cache trades capacity for hit rate without ever leaking the pool.

Packed low-bit pages are immutable after ``flush_blocks``, which is what
makes cross-sequence sharing safe: only per-sequence FP16 residual slots
mutate, and those are never shared.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List

from repro.pages.allocator import EvictionPolicy, PageAllocator


class PrefixCache(EvictionPolicy):
    """Content-key -> physical-page index for flushed packed blocks.

    Keys are opaque hashables supplied by the caller; the serving layer
    derives them from the request's token identity (see
    :func:`repro.serving.request.prefix_block_keys`).  First writer wins:
    registering a key that is already mapped keeps the existing page, so
    concurrent producers of the same prefix converge on one physical copy.
    """

    def __init__(self, allocator: PageAllocator):
        self.allocator = allocator
        allocator.register(self)
        self._by_key: Dict[Hashable, int] = {}
        self._by_page: Dict[int, Hashable] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._by_key)

    def match(self, keys: Iterable[Hashable]) -> List[int]:
        """Longest-prefix match: page ids for the leading run of hit keys.

        Stops at the first miss, without drawing another key from
        ``keys`` — a key names its whole prefix, so the probe's run of
        hits ends there.  Pure: the caller (the
        engine) decides whether the probe turns into an admission and
        accounts hits there.
        """
        pages: List[int] = []
        for key in keys:
            page = self._by_key.get(key)
            if page is None:
                break
            pages.append(page)
        return pages

    def insert(self, key: Hashable, page: int) -> int:
        """Register a flushed block's content; returns the canonical page.

        If the key is already mapped (another sequence flushed the same
        prefix first), the existing page wins and the caller keeps using
        its own copy unshared — dedup applies to *future* admissions.
        """
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        old_key = self._by_page.get(page)
        if old_key is not None:
            # The page was recycled into new content without an eviction
            # notice (it went truly free and came back); drop the stale entry.
            del self._by_key[old_key]
        self._by_key[key] = page
        self._by_page[page] = key
        return page

    # --------------------------------------------------- EvictionPolicy hooks

    def retains(self, page: int) -> bool:
        """Registered pages park at refcount 0 instead of going free."""
        return page in self._by_page

    def page_evicted(self, page: int) -> None:
        """Allocator reclaimed a parked page: unregister its content."""
        key = self._by_page.pop(page, None)
        if key is not None:
            del self._by_key[key]
            self.evictions += 1

    # ----------------------------------------------------------- maintenance

    def forget_page(self, page: int) -> None:
        """Explicitly drop a page's registration (content invalidated)."""
        key = self._by_page.pop(page, None)
        if key is not None:
            del self._by_key[key]
            self.allocator.reconsider(page)
