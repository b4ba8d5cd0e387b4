"""Logical-to-physical page tables for paged sequences.

Block tables may point multiple sequences at one physical page (prefix
sharing); the allocator's refcounts keep shared pages alive until the
last mapping drops.  Mutation of a shared page goes through
:meth:`PageTable.ensure_exclusive` — copy-on-write at page granularity.

Only the table's own mutators change a block table, and each one keeps
three books as it goes: the total number of mappings, the ids of the live
sequences, and, in the allocator (:meth:`PageAllocator.map
<repro.pages.allocator.PageAllocator.map>`), how many block tables map
each page, which lets the allocator know at every refcount or mapping
change how many pages' refcounts differ from their mapping counts.  The
table also keeps the ids a scheduler holds resident (:meth:`PageTable.hold`)
and how many ids are live without a holder or held without being live.
A whole-pool check then reads books instead of walking every block table.
"""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, List, Mapping, Optional, Sequence, Tuple

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
        self._live: Dict[int, None] = {}
        self._held: Dict[int, None] = {}
        #: Ids in exactly one of :attr:`live_ids` and :attr:`held_ids`: 0
        #: whenever the holder and the table agree on who is resident.
        self.unmatched_ids = 0
        #: Block-table entries over every live sequence (a page mapped by
        #: ``n`` sequences counts ``n`` times).
        self.mapped_total = 0

    @property
    def mapped(self) -> Mapping[int, int]:
        """Read-only live view of ``{page: block tables mapping it}``, the
        allocator's :attr:`~repro.pages.allocator.PageAllocator.mapped`."""
        return self.allocator.mapped

    @property
    def live_ids(self) -> KeysView[int]:
        """Read-only live view of the ids of the sequences registered and
        not yet released (compares equal to a set of the same ids)."""
        return self._live.keys()

    @property
    def held_ids(self) -> KeysView[int]:
        """Read-only live view of the ids a holder declared resident with
        :meth:`hold` and has not :meth:`unhold`-ed."""
        return self._held.keys()

    def hold(self, seq_id: int) -> None:
        """Book ``seq_id`` as held resident by the table's holder (the
        engine's running set); holding a held id is a no-op."""
        if seq_id not in self._held:
            self._held[seq_id] = None
            self.unmatched_ids += -1 if seq_id in self._live else 1

    def unhold(self, seq_id: int) -> None:
        """Book ``seq_id`` as no longer held; a no-op for an unheld id."""
        if seq_id in self._held:
            del self._held[seq_id]
            self.unmatched_ids += 1 if seq_id in self._live else -1

    def _map(self, pages: Sequence[int]) -> None:
        self.allocator.map(pages)
        self.mapped_total += len(pages)

    def _unmap(self, pages: Sequence[int]) -> None:
        self.allocator.unmap(pages)
        self.mapped_total -= len(pages)

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
        self._live[seq_id] = None
        self.unmatched_ids += -1 if seq_id in self._held else 1
        return seq_id

    def append_token(self, seq_id: int) -> None:
        """Grow a sequence by one token, allocating a page on boundaries
        (:meth:`extend_sequence` by one, so a released id raises)."""
        self.extend_sequence(seq_id, 1)

    def append_within_pages(self, seq_ids: Sequence[int]) -> List[int]:
        """Grow by one token each of ``seq_ids`` that has room in its last
        page (a decode step's growth in one pass), and return the positions
        of the others in list order.

        Those sit at a page boundary and are left untouched: the caller
        grows each with :meth:`extend_sequence` in turn, so their page ids
        go out in list order.  The pass takes no page, so it cannot run the
        pool dry.  A released id (no pages, length 0) is at a boundary, and
        its :meth:`extend_sequence` raises.
        """
        sequences, page_size = self.sequences, self.page_size
        boundary: List[int] = []
        for at, seq_id in enumerate(seq_ids):
            seq = sequences[seq_id]
            length = seq.length
            if not length % page_size and seq.needs_page():
                boundary.append(at)
            else:
                seq.length = length + 1
        return boundary

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
        del self._live[seq_id]
        self.unmatched_ids += 1 if seq_id in self._held else -1

    def total_tokens(self) -> int:
        return sum(seq.length for seq in self.sequences)

    def fragmentation(self) -> float:
        """Fraction of allocated page capacity holding no token."""
        capacity = sum(seq.capacity for seq in self.sequences)
        if capacity == 0:
            return 0.0
        return 1.0 - self.total_tokens() / capacity
