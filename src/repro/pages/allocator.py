"""Physical page allocator for the paged KV cache.

Ownership is reference-counted so multiple sequences can map the same
physical page (prefix sharing): ``allocate`` hands out a page with
refcount 1, ``acquire`` adds a reference, ``release`` drops one.  What
happens when a refcount hits zero is governed by registered
:class:`EvictionPolicy` observers: if any policy *retains* the page (its
content still backs something — a prefix-cache entry, say) it parks in an
LRU pool of reclaimable pages instead of returning to the free list.
Parked pages still count as free capacity: ``allocate`` evicts the
least-recently-released parked page (notifying every policy through
:meth:`EvictionPolicy.page_evicted`) when the free list runs dry.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping


class OutOfPagesError(RuntimeError):
    """Raised when an allocation cannot be satisfied (the OOM signal the
    serving layer uses to cap batch size)."""


class EvictionPolicy:
    """Observer of a :class:`PageAllocator`'s refcount-0 lifecycle.

    One protocol governs who may keep a reclaimable page alive and who
    must be told when it is reclaimed: the prefix cache retains pages
    whose packed content it still maps, and the tiered page store watches
    releases to keep its residency bookkeeping honest.  All hooks default
    to no-ops so a policy implements only the directions it cares about.
    """

    def retains(self, page: int) -> bool:
        """Should ``page`` park in the reclaimable pool at refcount 0?"""
        return False

    def page_released(self, page: int) -> None:
        """``page``'s refcount hit zero (it parked or went truly free)."""

    def page_evicted(self, page: int) -> None:
        """The allocator reclaimed parked ``page`` under pressure: any
        registration keeping it alive is now stale and must be dropped."""


class PageAllocator:
    """Fixed pool of physical pages with refcounted O(1) allocate/release.

    Pages are identified by integer ids in ``[0, n_pages)``.  The allocator
    tracks the free list, per-page refcounts, and the LRU pool of parked
    refcount-0 pages explicitly so tests can assert conservation invariants
    (no double allocation, no negative refcount, used + reclaimable == total).

    The free list is lazy, so construction is O(1) whatever the pool size:
    pages ``[_fresh, n_pages)`` have never been handed out, ``_free`` is the
    LIFO stack of recycled ones.  ``allocate`` pops the stack before it
    takes a fresh id, so a pool sized from a whole device's memory costs
    only the pages a run actually touches.
    """

    def __init__(self, n_pages: int):
        if n_pages <= 0:
            raise ValueError("n_pages must be positive")
        self.n_pages = n_pages
        self._free: List[int] = []
        self._fresh = 0
        self._refs: Dict[int, int] = {}
        # refcount-0 pages some policy retains (prefix cache content);
        # insertion order == least-recently-released first.
        self._cached: "OrderedDict[int, None]" = OrderedDict()
        self._policies: List[EvictionPolicy] = []
        self.evictions = 0
        #: ``{page: block tables mapping it}`` as booked by :meth:`map` /
        #: :meth:`unmap`, and the number of pages whose refcount differs
        #: from it, kept exact at every change to either.
        self._mapped: Dict[int, int] = {}
        self.mismatched_pages = 0

    # ------------------------------------------------------------- policies

    def register(self, policy: EvictionPolicy) -> None:
        """Attach an eviction policy / lifecycle observer."""
        if policy in self._policies:
            raise ValueError("policy is already registered")
        self._policies.append(policy)

    def _retained(self, page: int) -> bool:
        return any(policy.retains(page) for policy in self._policies)

    # ------------------------------------------------------------ accounting

    @property
    def free_pages(self) -> int:
        """Reclaimable pages: truly free plus parked-but-unreferenced."""
        return len(self._free) + self.n_pages - self._fresh + len(self._cached)

    @property
    def used_pages(self) -> int:
        return len(self._refs)

    def refcount(self, page: int) -> int:
        return self._refs.get(page, 0)

    @property
    def refcounts(self) -> Mapping[int, int]:
        """Read-only live view of ``{page: refcount}`` over exactly the used
        pages, for whole-pool checks that would otherwise call
        :meth:`refcount` once per page."""
        return MappingProxyType(self._refs)

    @property
    def mapped(self) -> Mapping[int, int]:
        """Read-only live view of ``{page: block tables mapping it}`` over
        exactly the mapped pages: equal to :attr:`refcounts` whenever no
        reference is held outside a block table."""
        return MappingProxyType(self._mapped)

    def map(self, pages: Iterable[int]) -> None:
        """Book one more block-table mapping of each of ``pages``."""
        mapped, refs, mismatched = self._mapped, self._refs, self.mismatched_pages
        for page in pages:
            old, ref = mapped.get(page, 0), refs.get(page, 0)
            mapped[page] = old + 1
            mismatched += (old + 1 != ref) - (old != ref)
        self.mismatched_pages = mismatched

    def unmap(self, pages: Iterable[int]) -> None:
        """Book one mapping fewer of each of ``pages``."""
        mapped, refs, mismatched = self._mapped, self._refs, self.mismatched_pages
        for page in pages:
            old, ref = mapped[page], refs.get(page, 0)
            if old > 1:
                mapped[page] = old - 1
            else:
                del mapped[page]
            mismatched += (old - 1 != ref) - (old != ref)
        self.mismatched_pages = mismatched

    def _refcount_changed(self, page: int, old: int, new: int) -> None:
        mapped = self._mapped.get(page, 0)
        self.mismatched_pages += (new != mapped) - (old != mapped)

    def is_cached(self, page: int) -> bool:
        """True for a refcount-0 page parked in the reclaimable LRU pool."""
        return page in self._cached

    # ------------------------------------------------------------- lifecycle

    def _evict_one(self) -> int:
        page, _ = self._cached.popitem(last=False)  # least recently released
        self.evictions += 1
        for policy in self._policies:
            policy.page_evicted(page)
        return page

    def allocate(self) -> int:
        """Take one page (refcount 1); raises :class:`OutOfPagesError` when
        exhausted.  Prefers the free list; falls back to evicting the LRU
        parked page."""
        if self._free:
            page = self._free.pop()
        elif self._fresh < self.n_pages:
            page = self._fresh
            self._fresh += 1
        elif self._cached:
            page = self._evict_one()
        else:
            raise OutOfPagesError(f"all {self.n_pages} pages in use; cannot grow the KV cache")
        self._refs[page] = 1
        self._refcount_changed(page, 0, 1)
        return page

    def allocate_many(self, count: int) -> List[int]:
        """Take ``count`` pages atomically (all or nothing)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count > self.free_pages:
            raise OutOfPagesError(f"requested {count} pages but only {self.free_pages} free")
        return [self.allocate() for _ in range(count)]

    def acquire(self, page: int) -> None:
        """Add a reference to a page.

        The page must be live (refcount > 0) or parked in the reclaimable
        pool — acquiring a parked page resurrects it without touching its
        content, which is exactly the prefix-cache hit path.
        """
        refs = self._refs.get(page)
        if refs is not None:
            self._refs[page] = refs + 1
            self._refcount_changed(page, refs, refs + 1)
            return
        if page in self._cached:
            del self._cached[page]
            self._refs[page] = 1
            self._refcount_changed(page, 0, 1)
            return
        raise ValueError(f"page {page} is not allocated or cached")

    def release(self, page: int) -> None:
        """Drop one reference; at zero the page becomes reclaimable."""
        self.release_many((page,))

    def release_many(self, pages: Iterable[int]) -> None:
        """Drop one reference on each of ``pages``, in one pass.

        Ends exactly where releasing each page in turn ends: pages reaching
        refcount zero join the free list, or (when a policy retains them)
        the end of the parked LRU, in list order, and each policy sees
        :meth:`EvictionPolicy.page_released` for them in list order.  The
        hooks fire once every page of the list is booked, which no policy
        can tell apart: none changes what it retains on a release.  A page
        that is not allocated raises after the pages before it are
        released.  Only policies that override a hook are asked.
        """
        refs, mapped = self._refs, self._mapped
        mismatched = self.mismatched_pages
        zeroed: List[int] = []
        try:
            for page in pages:
                ref = refs.get(page)
                if ref is None:
                    raise ValueError(f"page {page} is not allocated")
                booked = mapped.get(page, 0)
                mismatched += (ref - 1 != booked) - (ref != booked)
                if ref > 1:
                    refs[page] = ref - 1
                else:
                    del refs[page]
                    zeroed.append(page)
        finally:
            self.mismatched_pages = mismatched
            if zeroed:
                self._reclaimable(zeroed)

    def _reclaimable(self, pages: List[int]) -> None:
        """Park or free refcount-0 ``pages`` and fire their release hooks."""
        policies = self._policies
        retains = [p.retains for p in policies if type(p).retains is not EvictionPolicy.retains]
        if not retains:
            self._free.extend(pages)
        else:
            retained = retains[0] if len(retains) == 1 else self._retained
            cached, free = self._cached, self._free
            for page in pages:
                if retained(page):
                    cached[page] = None  # most recently released -> end of LRU
                else:
                    free.append(page)
        for policy in policies:
            if type(policy).page_released is not EvictionPolicy.page_released:
                for page in pages:
                    policy.page_released(page)

    def reconsider(self, page: int) -> None:
        """Re-evaluate a parked page after a policy dropped its claim.

        A parked page no policy retains anymore moves to the free list.
        This is the explicit-unregistration direction (e.g.
        :meth:`PrefixCache.forget_page <repro.pages.prefix_cache.PrefixCache.forget_page>`),
        so it does *not* fire :meth:`EvictionPolicy.page_evicted` — the
        caller already knows the content registration is gone.
        """
        if page in self._cached and not self._retained(page):
            del self._cached[page]
            self._free.append(page)
