"""The per-step page-conservation check against injected bookkeeping faults.

Each test runs a real engine and, inside one chosen scheduler step, breaks
the books the way a defective mutator would: a sequence the scheduler
dropped but the table still maps, a resident the table released while it
registered a stray sequence, an allocator reference nothing maps, a
mapping whose reference was dropped, a copy-on-write that skips its
release, and two reference errors whose sums cancel.  The step's
conservation check must raise ``AssertionError`` in that same step, before
the next one starts.
"""

import pytest

from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import Request

MODEL = LLAMA31_8B
INJECT_AT = 5


class ConstAttention:
    def decode_time_ms(self, geom):
        return 0.01


def make_engine(requests, n_pages=64, prefix_cache=False):
    return ContinuousBatchingEngine(
        EngineConfig(
            model=MODEL,
            arch=get_arch("a100"),
            fmt=int_format(4, MODEL),
            attention=ConstAttention(),
            n_pages=n_pages,
            prefill_chunk_tokens=128,
            prefix_cache=prefix_cache,
        ),
        requests,
    )


def shared_trace():
    """Two requests of one prefix group whose second admission hits the
    first's registered blocks, so shared pages are mapped twice."""
    return [
        Request(0, 0.0, 320, 40, shared_prefix_len=256),
        Request(1, 1e-3, 320, 40, shared_prefix_len=256),
    ]


def resident_pages(engine):
    return [
        page
        for lc in engine._running
        for page in engine.table.sequences[lc.seq_id].pages
    ]


def run_with_fault(engine, fault, at=INJECT_AT):
    """Run ``engine`` with ``fault(engine)`` applied right after step ``at``'s
    decode step; return the step whose conservation check raised."""
    step = engine._step

    def faulty_step():
        step()
        if engine._steps == at:
            fault(engine)

    engine._step = faulty_step
    with pytest.raises(AssertionError, match="conservation"):
        engine.run()
    return engine._steps


class TestConservationCatchesFaults:
    def test_a_sequence_the_scheduler_dropped_but_the_table_keeps(self):
        def forget(engine):
            lc = engine._running.pop()
            lc.seq_id = None  # the scheduler lets go; the table never hears

        assert run_with_fault(make_engine(shared_trace()), forget) == INJECT_AT

    def test_a_swapped_id_between_table_and_running_set(self):
        """The table drops a resident's sequence and registers a stray one:
        both id sets keep their size, so only the exact count of ids on
        one side but not the other sees it."""

        def swap_an_id(engine):
            table = engine.table
            stray = table.add_sequence(0)
            table.release_sequence(engine._running[0].seq_id)
            assert len(table.live_ids) == len(table.held_ids)
            assert stray not in table.held_ids

        assert run_with_fault(make_engine(shared_trace()), swap_an_id) == INJECT_AT

    def test_a_finish_that_skips_its_release(self):
        engine = make_engine([Request(0, 0.0, 128, 3), Request(1, 0.0, 128, 40)])
        emit, finished_at = engine._emit_tokens, []

        def leaky_emit(*args):
            release = engine.table.release_sequence
            engine.table.release_sequence = lambda seq_id: None
            try:
                emit(*args)
            finally:
                engine.table.release_sequence = release
            if engine.lifecycles[0].finished and not finished_at:
                finished_at.append(engine._steps)

        engine._emit_tokens = leaky_emit
        with pytest.raises(AssertionError, match="conservation"):
            engine.run()
        assert [engine._steps] == finished_at

    def test_an_allocator_reference_with_no_mapping(self):
        def over_reference(engine):
            engine.allocator.acquire(resident_pages(engine)[0])

        assert run_with_fault(make_engine(shared_trace()), over_reference) == INJECT_AT

    def test_a_leaked_allocation(self):
        def leak(engine):
            engine.allocator.allocate()

        assert run_with_fault(make_engine(shared_trace()), leak) == INJECT_AT

    def test_a_mapping_with_no_reference(self):
        def drop_reference(engine):
            engine.allocator.release(resident_pages(engine)[-1])

        assert run_with_fault(make_engine(shared_trace()), drop_reference) == INJECT_AT

    def test_a_copy_on_write_that_skips_its_release(self):
        engine = make_engine(shared_trace(), prefix_cache=True)

        def leaky_cow(engine):
            lc = engine._running[-1]
            page = engine.table.sequences[lc.seq_id].pages[0]
            assert engine.allocator.refcount(page) == 2  # the shared prefix block
            release = engine.allocator.release
            engine.allocator.release = lambda page: None
            try:
                fresh, copied_from = engine.table.ensure_exclusive(lc.seq_id, 0)
            finally:
                engine.allocator.release = release
            assert copied_from == page != fresh

        assert run_with_fault(engine, leaky_cow) == INJECT_AT

    def test_two_refcount_errors_that_cancel_in_every_sum(self):
        """A leaked acquire on one page and a stray release on another keep
        the refcount total, the used count and the free count: only a
        per-page comparison sees them."""
        engine = make_engine(shared_trace(), prefix_cache=True)

        def move_a_reference(engine):
            alloc = engine.allocator
            pages = resident_pages(engine)
            shared = next(page for page in pages if alloc.refcount(page) == 2)
            private = next(page for page in pages if alloc.refcount(page) == 1)

            def totals():
                return sum(alloc.refcounts.values()), alloc.used_pages, alloc.free_pages

            before = totals()
            alloc.acquire(private)
            alloc.release(shared)
            assert totals() == before
            assert sum(engine.table.mapped.values()) == engine.table.mapped_total == before[0]

        assert run_with_fault(engine, move_a_reference) == INJECT_AT

    def test_a_copy_on_write_that_releases_is_conserved(self):
        """The same copy-on-write with its release intact keeps the books."""
        engine = make_engine(shared_trace(), prefix_cache=True)
        step = engine._step

        def cow_step():
            step()
            if engine._steps == INJECT_AT:
                lc = engine._running[-1]
                assert engine.table.ensure_exclusive(lc.seq_id, 0)[1] is not None

        engine._step = cow_step
        report = engine.run()
        assert report.total_generated_tokens == 80
