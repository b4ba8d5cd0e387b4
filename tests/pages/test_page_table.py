"""Page table: logical->physical mapping and growth."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pages.allocator import OutOfPagesError, PageAllocator
from repro.pages.page_table import PagedSequence, PageTable


class TestPagedSequence:
    def test_needs_page(self):
        seq = PagedSequence(page_size=4, pages=[1], length=4)
        assert seq.needs_page()


class TestPageTable:
    def test_add_sequence_allocates_ceiling(self):
        table = PageTable(PageAllocator(64), page_size=16)
        sid = table.add_sequence(initial_length=33)
        assert len(table.sequences[sid].pages) == 3

    def test_append_allocates_on_boundary(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        sid = table.add_sequence(initial_length=4)
        used_before = alloc.used_pages
        table.append_token(sid)
        assert alloc.used_pages == used_before + 1
        table.append_token(sid)
        assert alloc.used_pages == used_before + 1  # same page

    def test_release_returns_pages(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        sid = table.add_sequence(initial_length=16)
        table.release_sequence(sid)
        assert alloc.free_pages == 8

    def test_released_ids_are_recycled(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        first = table.add_sequence(initial_length=4)
        table.release_sequence(first)
        second = table.add_sequence(initial_length=4)
        assert second == first
        assert len(table.sequences) == 1  # bounded by peak concurrency

    def test_double_release_raises(self):
        table = PageTable(PageAllocator(8), page_size=4)
        sid = table.add_sequence(initial_length=4)
        table.release_sequence(sid)
        with pytest.raises(ValueError):
            table.release_sequence(sid)

    def test_oom_on_add(self):
        table = PageTable(PageAllocator(2), page_size=4)
        with pytest.raises(OutOfPagesError):
            table.add_sequence(initial_length=100)

    def test_extend_sequence_allocates_ceiling(self):
        alloc = PageAllocator(16)
        table = PageTable(alloc, page_size=4)
        sid = table.add_sequence(initial_length=3)
        table.extend_sequence(sid, 6)  # 9 tokens -> 3 pages
        assert table.sequences[sid].length == 9
        assert len(table.sequences[sid].pages) == 3
        table.extend_sequence(sid, 0)  # no-op chunk
        assert alloc.used_pages == 3

    def test_extend_sequence_oom_is_atomic(self):
        alloc = PageAllocator(3)
        table = PageTable(alloc, page_size=4)
        sid = table.add_sequence(initial_length=4)
        with pytest.raises(OutOfPagesError):
            table.extend_sequence(sid, 12)  # needs 3 more pages, only 2 free
        # The failed chunk left no partial reservation behind.
        assert table.sequences[sid].length == 4
        assert len(table.sequences[sid].pages) == 1
        assert alloc.used_pages == 1
        table.extend_sequence(sid, 8)  # retry that fits
        assert table.sequences[sid].length == 12

    def test_extend_released_sequence_raises(self):
        table = PageTable(PageAllocator(8), page_size=4)
        sid = table.add_sequence(initial_length=4)
        table.release_sequence(sid)
        with pytest.raises(ValueError):
            table.extend_sequence(sid, 4)

    def test_extend_negative_raises(self):
        table = PageTable(PageAllocator(8), page_size=4)
        sid = table.add_sequence(initial_length=4)
        with pytest.raises(ValueError):
            table.extend_sequence(sid, -1)

    def test_fragmentation(self):
        table = PageTable(PageAllocator(8), page_size=4)
        table.add_sequence(initial_length=5)  # 2 pages, 3 slots wasted
        assert table.fragmentation() == pytest.approx(3 / 8)

    def test_fragmentation_empty(self):
        assert PageTable(PageAllocator(4)).fragmentation() == 0.0

    def test_total_tokens(self):
        table = PageTable(PageAllocator(32), page_size=4)
        table.add_sequence(initial_length=5)
        table.add_sequence(initial_length=7)
        assert table.total_tokens() == 12


class TestSharedPages:
    def test_add_sequence_acquires_shared(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=8)
        shared = table.sequences[parent].pages
        child = table.add_sequence(initial_length=12, shared_pages=shared)
        assert table.sequences[child].pages[:2] == shared
        assert all(alloc.refcount(p) == 2 for p in shared)
        # Only the third block drew a fresh page.
        assert alloc.used_pages == 3

    def test_too_many_shared_pages_rejected(self):
        table = PageTable(PageAllocator(8), page_size=4)
        parent = table.add_sequence(initial_length=8)
        with pytest.raises(ValueError):
            table.add_sequence(
                initial_length=4, shared_pages=table.sequences[parent].pages
            )

    def test_shared_admission_rolls_back_on_oom(self):
        alloc = PageAllocator(3)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=8)
        shared = table.sequences[parent].pages
        with pytest.raises(OutOfPagesError):
            # Needs 2 fresh pages on top of the 2 shared; only 1 free.
            table.add_sequence(initial_length=16, shared_pages=shared)
        # The failed admission dropped its references on the shared pages.
        assert all(alloc.refcount(p) == 1 for p in shared)
        assert alloc.free_pages == 1

    def test_shared_admission_rolls_back_bad_page(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=4)
        good = table.sequences[parent].pages[0]
        with pytest.raises(ValueError):
            table.add_sequence(initial_length=8, shared_pages=[good, 7])
        assert alloc.refcount(good) == 1

    def test_release_keeps_shared_pages_alive(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=8)
        shared = table.sequences[parent].pages
        child = table.add_sequence(initial_length=8, shared_pages=shared)
        table.release_sequence(parent)
        # The child still maps the pages; they must not be reclaimable.
        assert all(alloc.refcount(p) == 1 for p in shared)
        assert alloc.free_pages == 6
        table.release_sequence(child)
        assert alloc.free_pages == 8


class TestCopyOnWrite:
    def test_exclusive_page_untouched(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        sid = table.add_sequence(initial_length=4)
        page = table.sequences[sid].pages[0]
        assert table.ensure_exclusive(sid, 0) == (page, None)
        assert table.sequences[sid].pages[0] == page

    def test_shared_page_cloned(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=4)
        old = table.sequences[parent].pages[0]
        child = table.add_sequence(initial_length=4, shared_pages=[old])
        fresh, copied_from = table.ensure_exclusive(child, 0)
        assert copied_from == old
        assert fresh != old
        assert table.sequences[child].pages[0] == fresh
        # Parent keeps the original page, now exclusively.
        assert table.sequences[parent].pages[0] == old
        assert alloc.refcount(old) == 1
        assert alloc.refcount(fresh) == 1


class TestForkSequence:
    def test_fork_shares_everything(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=6)
        child = table.fork_sequence(parent)
        assert table.sequences[child].pages == table.sequences[parent].pages
        assert table.sequences[child].length == 6
        assert alloc.used_pages == 2  # no new physical pages

    def test_fork_released_sequence_raises(self):
        table = PageTable(PageAllocator(8), page_size=4)
        sid = table.add_sequence(initial_length=4)
        table.release_sequence(sid)
        with pytest.raises(ValueError):
            table.fork_sequence(sid)

    def test_fork_then_diverge(self):
        alloc = PageAllocator(8)
        table = PageTable(alloc, page_size=4)
        parent = table.add_sequence(initial_length=8)
        child = table.fork_sequence(parent)
        table.append_token(child)  # third page, child-private
        fresh, copied_from = table.ensure_exclusive(child, 1)
        assert copied_from == table.sequences[parent].pages[1]
        assert table.sequences[child].pages[0] == table.sequences[parent].pages[0]
        assert table.sequences[child].pages[1] == fresh
        table.release_sequence(parent)
        table.release_sequence(child)
        assert alloc.free_pages == 8


class TestGrowthProperty:
    @given(
        page_size=st.sampled_from([4, 16, 64]),
        appends=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_page_count_is_ceiling(self, page_size, appends):
        table = PageTable(PageAllocator(512), page_size=page_size)
        sid = table.add_sequence()
        for _ in range(appends):
            table.append_token(sid)
        seq = table.sequences[sid]
        assert seq.length == appends
        assert len(seq.pages) == -(-appends // page_size)


def recount(table):
    """The books rebuilt from the block tables of the live sequences."""
    released = set(table._free_ids)
    live = {i for i in range(len(table.sequences)) if i not in released}
    mapped = Counter(p for i in live for p in table.sequences[i].pages)
    return live, mapped, sum(mapped.values())


#: One table operation: (name, which live sequence, size argument).
OPS = st.tuples(
    st.sampled_from(["add", "add_shared", "append", "extend", "cow", "fork", "release"]),
    st.integers(0, 7),
    st.integers(0, 20),
)


class TestBooks:
    @given(page_size=st.sampled_from([1, 4, 16]), ops=st.lists(OPS, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_books_equal_the_recount_after_every_operation(self, page_size, ops):
        """After any run of mutators (exhaustion included), the mapping
        multiset, the mapping total and the live ids the table keeps equal
        a recount from the block tables, and the multiset equals the
        allocator's refcounts."""
        alloc = PageAllocator(24)
        table = PageTable(alloc, page_size=page_size)
        for name, pick, size in ops:
            live = sorted(table.live_ids)
            seq_id = live[pick % len(live)] if live else None
            try:
                if name == "add":
                    table.add_sequence(size)
                elif seq_id is None:
                    continue
                elif name == "add_shared":
                    pages = table.sequences[seq_id].pages
                    shared = pages[: min(len(pages), -(-size // page_size))]
                    table.add_sequence(size, shared_pages=shared)
                elif name == "append":
                    table.append_token(seq_id)
                elif name == "extend":
                    table.extend_sequence(seq_id, size)
                elif name == "cow" and table.sequences[seq_id].pages:
                    table.ensure_exclusive(seq_id, size % len(table.sequences[seq_id].pages))
                elif name == "fork":
                    table.fork_sequence(seq_id)
                elif name == "release":
                    table.release_sequence(seq_id)
            except (OutOfPagesError, ValueError):
                pass
            live_ids, mapped, total = recount(table)
            assert table.live_ids == live_ids
            assert table.mapped == mapped
            assert table.mapped_total == total
            assert table.mapped == alloc.refcounts

    def test_block_tables_change_only_through_the_table(self):
        table = PageTable(PageAllocator(8), page_size=4)
        seq = table.sequences[table.add_sequence(8)]
        with pytest.raises(AttributeError):
            seq.pages.append(7)
        with pytest.raises(AttributeError):
            seq.pages = (7,)
