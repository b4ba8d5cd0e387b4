"""Logical-to-physical page tables for paged sequences.

Block tables may point multiple sequences at one physical page (prefix
sharing); the allocator's refcounts keep shared pages alive until the
last mapping drops.  Mutation of a shared page goes through
:meth:`PageTable.ensure_exclusive` — copy-on-write at page granularity.

Only the table's own mutators change a block table, and each one keeps
three books as it goes: how many block tables map each page, the total
number of mappings, and the ids of the live sequences.  A whole-pool
check then compares books instead of walking every block table.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.pages.allocator import PageAllocator


class PagedSequence:
    """One sequence's page table: logical token index -> (page, offset).

    ``pages`` is a tuple that only :class:`PageTable` replaces, so its
    books see every change to a mapping.
    """

    __slots__ = ("page_size", "_pages", "length")

    def __init__(self, page_size: int, pages: Iterable[int] = (), length: int = 0):
        self.page_size = page_size
        self._pages: Tuple[int, ...] = tuple(pages)
        self.length = length

    @property
    def pages(self) -> Tuple[int, ...]:
        return self._pages

    @property
    def capacity(self) -> int:
        return len(self._pages) * self.page_size

    def needs_page(self) -> bool:
        return self.length == self.capacity


class PageTable:
    """Page tables for a batch of sequences over one shared allocator.

    Bytes-per-token accounting is left to callers (it depends on the cache's
    bit width); this class manages only the page geometry.
    """

    def __init__(self, allocator: PageAllocator, page_size: int = 64):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.allocator = allocator
        self.page_size = page_size
        self.sequences: List[PagedSequence] = []
        self._free_ids: List[int] = []
        self._mapped: Dict[int, int] = {}
        self._live: Set[int] = set()
        #: Block-table entries over every live sequence (a page mapped by
        #: ``n`` sequences counts ``n`` times).
        self.mapped_total = 0

    @property
    def mapped(self) -> Mapping[int, int]:
        """Read-only live view of ``{page: block tables mapping it}`` over
        exactly the mapped pages: equal to the allocator's ``refcounts``
        whenever no reference is held outside a block table."""
        return MappingProxyType(self._mapped)

    @property
    def live_ids(self) -> Set[int]:
        """Ids of the sequences registered and not yet released."""
        return set(self._live)

    def _map(self, pages: Iterable[int]) -> None:
        mapped = self._mapped
        for page in pages:
            mapped[page] = mapped.get(page, 0) + 1
            self.mapped_total += 1

    def _unmap(self, pages: Iterable[int]) -> None:
        mapped = self._mapped
        for page in pages:
            count = mapped[page] - 1
            if count:
                mapped[page] = count
            else:
                del mapped[page]
            self.mapped_total -= 1

    def pages_for(self, tokens: int) -> int:
        """Pages a context of ``tokens`` tokens occupies."""
        return -(-tokens // self.page_size)

    def add_sequence(
        self, initial_length: int = 0, shared_pages: Optional[Sequence[int]] = None
    ) -> int:
        """Register a sequence, allocating pages for an initial context.

        ``shared_pages`` maps the sequence's leading blocks onto existing
        physical pages (a prefix-cache hit): those pages are ``acquire``-d
        rather than allocated, and only the remainder of the context draws
        fresh pages.  The acquisitions happen first so a hit page parked in
        the allocator's cached pool cannot be evicted to satisfy the fresh
        part of the very same admission.

        Returns the sequence id; ids of released sequences are recycled, so
        a long-lived table stays bounded by peak concurrency rather than
        total admissions.  Raises ``OutOfPagesError`` (leaving no partial
        allocation behind) when the pool cannot hold the context.
        """
        shared = list(shared_pages) if shared_pages else []
        n_pages = self.pages_for(initial_length)
        if len(shared) > n_pages:
            raise ValueError(
                f"{len(shared)} shared pages exceed the {n_pages} pages an "
                f"initial context of {initial_length} tokens occupies"
            )
        for i, page in enumerate(shared):
            try:
                self.allocator.acquire(page)
            except ValueError:
                for held in shared[:i]:
                    self.allocator.release(held)
                raise
        try:
            fresh = self.allocator.allocate_many(n_pages - len(shared))
        except Exception:
            for held in shared:
                self.allocator.release(held)
            raise
        seq = PagedSequence(self.page_size, shared + fresh, initial_length)
        if self._free_ids:
            seq_id = self._free_ids.pop()
            self.sequences[seq_id] = seq
        else:
            seq_id = len(self.sequences)
            self.sequences.append(seq)
        self._map(seq.pages)
        self._live.add(seq_id)
        return seq_id

    def append_token(self, seq_id: int) -> None:
        """Grow a sequence by one token, allocating a page on boundaries."""
        seq = self.sequences[seq_id]
        if seq.needs_page():
            page = self.allocator.allocate()
            seq._pages += (page,)
            self._map((page,))
        seq.length += 1

    def extend_sequence(self, seq_id: int, n_tokens: int) -> None:
        """Grow a sequence by ``n_tokens`` (one prefill chunk) atomically.

        Every page the extension needs is taken in one all-or-nothing
        allocation, so an ``OutOfPagesError`` leaves the sequence exactly
        as it was — a preempting caller can pick a victim and retry, and a
        mid-prefill preemption releases precisely the pages reserved so
        far, never pages from a half-applied chunk.
        """
        if n_tokens < 0:
            raise ValueError("n_tokens must be non-negative")
        if seq_id not in self._live:
            raise ValueError(f"sequence {seq_id} is not live")
        seq = self.sequences[seq_id]
        target = seq.length + n_tokens
        n_pages = self.pages_for(target) - len(seq.pages)
        if n_pages > 0:
            fresh = self.allocator.allocate_many(n_pages)
            seq._pages += tuple(fresh)
            self._map(fresh)
        seq.length = target

    def ensure_exclusive(self, seq_id: int, block_idx: int) -> Tuple[int, Optional[int]]:
        """Copy-on-write: make ``block_idx`` of a sequence exclusively owned.

        If the backing page is shared (refcount > 1), a fresh page is
        allocated, swapped into this sequence's block table, and the old
        reference dropped.  Returns ``(page_id, copied_from)`` where
        ``copied_from`` is the old page id when a clone happened (the
        physical store must copy page *content* from it — this class only
        manages the mapping) and ``None`` when the page was already ours.
        """
        seq = self.sequences[seq_id]
        page = seq.pages[block_idx]
        if self.allocator.refcount(page) <= 1:
            return page, None
        fresh = self.allocator.allocate()
        pages = seq.pages
        seq._pages = pages[:block_idx] + (fresh,) + pages[block_idx + 1 :]
        self._map((fresh,))
        self._unmap((page,))
        self.allocator.release(page)
        return fresh, page

    def fork_sequence(self, seq_id: int) -> int:
        """Clone a sequence's mapping, sharing every backing page.

        The child acquires a reference on each of the parent's pages —
        including a trailing reserved-but-unflushed one — so either side
        mutating a shared page must go through :meth:`ensure_exclusive`.
        """
        if seq_id not in self._live:
            raise ValueError(f"sequence {seq_id} is not live")
        parent = self.sequences[seq_id]
        child_id = self.add_sequence(
            initial_length=parent.capacity, shared_pages=parent.pages
        )
        self.sequences[child_id].length = parent.length
        return child_id

    def release_sequence(self, seq_id: int) -> None:
        """Drop this sequence's reference on all its pages, recycle its id."""
        if seq_id not in self._live:
            raise ValueError(f"sequence {seq_id} is not live (already released?)")
        seq = self.sequences[seq_id]
        self.allocator.release_many(seq.pages)
        self._unmap(seq.pages)
        seq._pages = ()
        seq.length = 0
        self._free_ids.append(seq_id)
        self._live.discard(seq_id)

    def total_tokens(self) -> int:
        return sum(seq.length for seq in self.sequences)

    def fragmentation(self) -> float:
        """Fraction of allocated page capacity holding no token."""
        capacity = sum(seq.capacity for seq in self.sequences)
        if capacity == 0:
            return 0.0
        return 1.0 - self.total_tokens() / capacity
