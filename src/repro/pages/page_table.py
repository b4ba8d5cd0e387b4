"""Logical-to-physical page tables for paged sequences.

Block tables may point multiple sequences at one physical page (prefix
sharing); the allocator's refcounts keep shared pages alive until the
last mapping drops.  Mutation of a shared page goes through
:meth:`PageTable.ensure_exclusive` — copy-on-write at page granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.pages.allocator import PageAllocator


@dataclass
class PagedSequence:
    """One sequence's page table: logical token index -> (page, offset)."""

    page_size: int
    pages: List[int] = field(default_factory=list)
    length: int = 0

    @property
    def capacity(self) -> int:
        return len(self.pages) * self.page_size

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
        seq = PagedSequence(
            page_size=self.page_size, pages=shared + fresh, length=initial_length
        )
        if self._free_ids:
            seq_id = self._free_ids.pop()
            self.sequences[seq_id] = seq
            return seq_id
        self.sequences.append(seq)
        return len(self.sequences) - 1

    def append_token(self, seq_id: int) -> None:
        """Grow a sequence by one token, allocating a page on boundaries."""
        seq = self.sequences[seq_id]
        if seq.needs_page():
            seq.pages.append(self.allocator.allocate())
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
        if seq_id in self._free_ids:
            raise ValueError(f"sequence {seq_id} is released")
        seq = self.sequences[seq_id]
        target = seq.length + n_tokens
        n_pages = self.pages_for(target) - len(seq.pages)
        if n_pages > 0:
            seq.pages.extend(self.allocator.allocate_many(n_pages))
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
        seq.pages[block_idx] = fresh
        self.allocator.release(page)
        return fresh, page

    def fork_sequence(self, seq_id: int) -> int:
        """Clone a sequence's mapping, sharing every backing page.

        The child acquires a reference on each of the parent's pages —
        including a trailing reserved-but-unflushed one — so either side
        mutating a shared page must go through :meth:`ensure_exclusive`.
        """
        if seq_id in self._free_ids:
            raise ValueError(f"sequence {seq_id} is released")
        parent = self.sequences[seq_id]
        child_id = self.add_sequence(
            initial_length=parent.capacity, shared_pages=parent.pages
        )
        self.sequences[child_id].length = parent.length
        return child_id

    def release_sequence(self, seq_id: int) -> None:
        """Drop this sequence's reference on all its pages, recycle its id."""
        if seq_id in self._free_ids:
            raise ValueError(f"sequence {seq_id} is already released")
        seq = self.sequences[seq_id]
        self.allocator.release_many(seq.pages)
        seq.pages = []
        seq.length = 0
        self._free_ids.append(seq_id)

    def total_tokens(self) -> int:
        return sum(seq.length for seq in self.sequences)

    def fragmentation(self) -> float:
        """Fraction of allocated page capacity holding no token."""
        capacity = sum(seq.capacity for seq in self.sequences)
        if capacity == 0:
            return 0.0
        return 1.0 - self.total_tokens() / capacity
