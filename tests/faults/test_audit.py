"""Invariant auditor: seeded bookkeeping violations must be caught.

Each test corrupts one internal structure the way a real bug would
(a double-free, a leaked refcount, a desynchronized tier bijection) and
asserts the auditor names it.  A healthy system must pass every check —
the auditor runs on every engine step, so false positives are as fatal
as misses.
"""

import pytest

from repro.faults.audit import InvariantAuditor, InvariantViolation
from repro.pages.allocator import PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore


def _system(n_pages=8, page_size=4, tiers=False):
    alloc = PageAllocator(n_pages)
    store = TieredPageStore(alloc, 3, n_pages - 3) if tiers else None
    table = PageTable(alloc, page_size=page_size)
    return alloc, table, store


class TestHealthy:
    def test_fresh_system_passes(self):
        alloc, table, store = _system(tiers=True)
        InvariantAuditor(alloc, table, store).audit()

    def test_live_sequences_pass(self):
        alloc, table, store = _system(tiers=True)
        table.add_sequence(6)
        seq = table.add_sequence(9)
        store.start_step()
        store.ensure_resident(table.sequences[seq].pages)
        InvariantAuditor(alloc, table, store).audit(step=3)

    def test_released_and_parked_pages_pass(self):
        alloc, table, _ = _system()
        seq = table.add_sequence(6)
        table.release_sequence(seq)
        auditor = InvariantAuditor(alloc, table)
        auditor.audit()
        assert auditor.audits == 1

    def test_violation_is_an_assertion(self):
        assert issubclass(InvariantViolation, AssertionError)


class TestAllocatorChecks:
    def test_double_free_caught(self):
        alloc, table, _ = _system()
        table.release_sequence(table.add_sequence(4))
        alloc._free.append(alloc._free[-1])  # the recycled page, freed again
        with pytest.raises(InvariantViolation, match="duplicate"):
            InvariantAuditor(alloc, table).audit()

    def test_fresh_page_also_recycled_caught(self):
        alloc, _, _ = _system()
        alloc._free.append(5)  # never handed out, yet on the recycled stack
        with pytest.raises(InvariantViolation, match="duplicate"):
            InvariantAuditor(alloc).audit()

    def test_page_both_free_and_live_caught(self):
        alloc, table, _ = _system()
        seq = table.add_sequence(4)
        alloc._free.append(table.sequences[seq].pages[0])  # freed while mapped
        with pytest.raises(InvariantViolation, match="free/live"):
            InvariantAuditor(alloc, table).audit()

    def test_unaccounted_page_caught(self):
        alloc, _, _ = _system()
        alloc.allocate()
        alloc._fresh += 1  # page 1 handed out, recorded in no partition
        with pytest.raises(InvariantViolation, match=r"pages \[1\] are unaccounted"):
            InvariantAuditor(alloc).audit()

    def test_nonpositive_refcount_caught(self):
        alloc, table, _ = _system()
        seq = table.add_sequence(4)
        page = table.sequences[seq].pages[0]
        alloc._refs[page] = 0  # a release that forgot to move the page
        with pytest.raises(InvariantViolation, match="refcount"):
            InvariantAuditor(alloc).audit()


class TestOwnershipChecks:
    def test_refcount_mapping_mismatch_caught(self):
        alloc, table, _ = _system()
        seq = table.add_sequence(4)
        alloc._refs[table.sequences[seq].pages[0]] += 1  # leaked acquire
        with pytest.raises(InvariantViolation, match="refcount"):
            InvariantAuditor(alloc, table).audit()

    def test_released_sequence_retaining_pages_caught(self):
        alloc, table, _ = _system()
        seq = table.add_sequence(4)
        pages = table.sequences[seq].pages
        table.release_sequence(seq)
        table.sequences[seq]._pages = pages  # a release that kept its mapping
        with pytest.raises(InvariantViolation, match="released sequence"):
            InvariantAuditor(alloc, table).audit()

    def test_orphaned_refs_caught(self):
        alloc, table, _ = _system()
        alloc.allocate()  # a ref'd page no sequence maps
        with pytest.raises(InvariantViolation, match="no sequence maps"):
            InvariantAuditor(alloc, table).audit()


class TestTierChecks:
    def test_broken_bijection_caught(self):
        alloc, table, store = _system(tiers=True)
        store._frame_of[0], store._frame_of[1] = store._frame_of[1], store._frame_of[0]
        with pytest.raises(InvariantViolation, match="bijection|permutations"):
            InvariantAuditor(alloc, table, store).audit()

    def test_lru_tracking_nonresident_page_caught(self):
        alloc, table, store = _system(tiers=True)
        page = store._page_at[store.device_pages]  # a host-tier page
        store._lru[page] = None
        with pytest.raises(InvariantViolation, match="non-resident"):
            InvariantAuditor(alloc, table, store).audit()

    def test_step_number_lands_in_message(self):
        alloc, _, store = _system(tiers=True)
        store._frame_of[0] = store._frame_of[1]
        with pytest.raises(InvariantViolation, match="at step 42"):
            InvariantAuditor(alloc, tiers=store).audit(step=42)
