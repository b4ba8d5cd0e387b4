"""Periodic cross-checks of the paged-serving bookkeeping invariants.

The engine's per-step conservation assert covers page *counts*; the
auditor goes deeper and cross-checks the actual data structures against
each other — the redundancy that catches a corrupted refcount or a
desynchronized tier bijection the moment it happens rather than steps
later when a sequence reads someone else's pages:

- **allocator partition** — every page id is in exactly one of the free
  list, the live refcount map (refcount >= 1), or the parked LRU pool.
  Ids at or above the allocator's fresh cursor were never issued and are
  free by construction, so the check walks only the issued ids (plus one
  test that no recycled, live or parked id lies beyond the cursor): its
  cost follows the pages a run touched, not the pool size.
- **running set** — the engine's running total of the pages its running
  set is committed to, its decode-ready and prefilling lists and the ids
  it holds in the page table equal the recount and the filters over
  that set.
- **ownership** — a page's refcount equals the number of live sequences
  mapping it in the block tables, no released sequence retains pages,
  and the table's count of ids live but not held (or held but not live)
  equals the recount.
- **tier bijection** — ``frame_of`` and ``page_at`` are inverse
  permutations, and the device LRU tracks only device-resident pages.

Violations raise :class:`InvariantViolation` (an ``AssertionError``
subclass, so test suites treating asserts as failures catch it too).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Optional

from repro.pages.allocator import PageAllocator
from repro.pages.page_table import PageTable


class InvariantViolation(AssertionError):
    """A cross-structure bookkeeping invariant does not hold."""


class InvariantAuditor:
    """Cross-checks allocator, block tables and the tier store.

    ``audit()`` runs every check wired at construction and raises
    :class:`InvariantViolation` on the first failure; the engine calls it
    every ``audit_every`` steps and once after the run drains.
    """

    def __init__(
        self,
        allocator: PageAllocator,
        table: Optional[PageTable] = None,
        tiers=None,
        running=None,
    ):
        self.allocator = allocator
        self.table = table
        self.tiers = tiers
        #: The engine's :class:`~repro.serving.request.RunningSet`, whose
        #: books :meth:`check_running` recounts.
        self.running = running
        self.audits = 0

    def audit(self, step: Optional[int] = None) -> None:
        self.audits += 1
        where = f" at step {step}" if step is not None else ""
        self._check_allocator(where)
        if self.table is not None:
            self.check_ownership(where)
        if self.running is not None:
            self.check_running(where)
        if self.tiers is not None:
            self._check_bijection(where)

    # -------------------------------------------------------------- checks

    def _fail(self, msg: str) -> None:
        raise InvariantViolation(msg)

    def _check_allocator(self, where: str) -> None:
        alloc = self.allocator
        issued = alloc._fresh
        free, live, parked = set(alloc._free), set(alloc._refs), set(alloc._cached)
        # Ids from the fresh cursor on are free without being listed: a
        # recycled one there is on the free list twice, and a live or
        # parked one clashes with the free set below.
        if len(free) != len(alloc._free) or any(p >= issued for p in free):
            self._fail(f"free list holds duplicate pages{where}")
        free |= {p for p in chain(live, parked) if p >= issued}
        for a, b, name in (
            (free, live, "free/live"),
            (free, parked, "free/parked"),
            (live, parked, "live/parked"),
        ):
            overlap = a & b
            if overlap:
                self._fail(f"pages {sorted(overlap)} are both {name}{where}")
        union = free | live | parked
        if union != set(range(issued)):
            missing = sorted(set(range(issued)) - union)
            self._fail(f"pages {missing} are unaccounted for{where}")
        bad = {p: r for p, r in alloc._refs.items() if r <= 0}
        if bad:
            self._fail(f"non-positive refcounts {bad}{where}")

    def check_ownership(self, where: str = "") -> None:
        """The full recount: every page's refcount equals the number of live
        block tables mapping it, no released sequence keeps pages, the
        allocator's mismatch book (the per-step check's input) reads 0, and
        the table's unmatched-id count equals the ids it recounts."""
        table, alloc = self.table, self.allocator
        released = set(table._free_ids)
        mapped: Counter = Counter()
        for seq_id, seq in enumerate(table.sequences):
            if seq_id in released:
                if seq.pages:
                    self._fail(f"released sequence {seq_id} still maps pages {seq.pages}{where}")
                continue
            mapped.update(seq.pages)
        for page, count in mapped.items():
            refs = alloc.refcount(page)
            if refs != count:
                self._fail(
                    f"page {page} mapped by {count} sequence(s) but refcount is {refs}{where}"
                )
        orphaned = set(alloc._refs) - set(mapped)
        if orphaned:
            self._fail(f"pages {sorted(orphaned)} hold refs but no sequence maps them{where}")
        if alloc.mismatched_pages:
            self._fail(
                f"allocator books {alloc.mismatched_pages} refcount/mapping mismatches "
                f"the recount does not find{where}"
            )
        unmatched = len(set(table.live_ids) ^ set(table.held_ids))
        if table.unmatched_ids != unmatched:
            self._fail(
                f"table books {table.unmatched_ids} unmatched sequence ids, the "
                f"recount finds {unmatched}{where}"
            )

    def check_running(self, where: str = "") -> None:
        """The recount behind the running set's committed-pages,
        decode-ready, prefilling and resident-id books."""
        wrong = self.running.check()
        if wrong is not None:
            self._fail(f"{wrong}{where}")

    def _check_bijection(self, where: str) -> None:
        tiers = self.tiers
        n = tiers.n_pages
        frame_of, page_at = tiers._frame_of, tiers._page_at
        if sorted(frame_of) != list(range(n)) or sorted(page_at) != list(range(n)):
            self._fail(f"tier frame maps are not permutations of [0, {n}){where}")
        for page in range(n):
            if page_at[frame_of[page]] != page:
                self._fail(
                    f"tier bijection broken: page {page} -> frame {frame_of[page]} "
                    f"-> page {page_at[frame_of[page]]}{where}"
                )
        for page in tiers._lru:
            if not tiers.resident(page):
                self._fail(f"LRU tracks non-resident page {page}{where}")
