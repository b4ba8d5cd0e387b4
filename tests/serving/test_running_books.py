"""The running set's books against their recount, and what they buy.

:class:`~repro.serving.request.RunningSet` keeps the pages the running
set's contexts are committed to as a running total, its decode-ready
and its still-prefilling members as two lists in running order, and the
seq ids of its running and swap-parked members as ids it holds in the
page table.  Every membership change, finished prefill and generated
token updates them, so chunked admission's gate, a step's decode filter
and its prefill walk cost O(1) instead of a walk over the resident
batch.  The property below runs the configuration space (chunk size, page
size, prefix cache, recompute or swap preemption, faults, deadlines,
tight pools) and recounts the books after every scheduler step; the
count guard pins that an admission's work no longer grows with the
number of residents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.audit import InvariantAuditor, InvariantViolation
from repro.faults.plan import FaultSpec
from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.pages.page_table import PageTable
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import DeadlinePolicy, Request, poisson_trace

MODEL = LLAMA31_8B
A100 = get_arch("a100")


class ConstAttention:
    def decode_time_ms(self, geom):
        return 0.01


def _engine(trace, *, chunk=128, page_size=64, prefix=False, swap=False, faults=False,
            deadline_ms=None, pool=None, max_batch=384, audit_every=None):
    pages = pool if pool is not None else 10 ** 5
    tiers = dict(preemption="swap", device_pages=pages, host_pages=4 * pages) if swap else {}
    return ContinuousBatchingEngine(
        EngineConfig(
            model=MODEL,
            arch=A100,
            fmt=int_format(4, MODEL),
            attention=ConstAttention(),
            page_size=page_size,
            n_pages=None if swap else pages,
            max_batch=max_batch,
            prefill_chunk_tokens=chunk,
            prefix_cache=prefix,
            faults=FaultSpec(seed=1, transfer_fault_rate=0.2, corruption_rate=0.05)
            if faults
            else None,
            deadline_policy=None
            if deadline_ms is None
            else DeadlinePolicy(default_deadline_s=deadline_ms * 1e-3),
            audit_every=audit_every,
            **tiers,
        ),
        trace,
    )


def _run_checking_books(engine):
    """Drive ``engine`` tick by tick, recounting the books after each step."""
    while engine._tick():
        assert engine.running.check() is None, f"after step {engine._steps}"
    return engine.finish()


@settings(max_examples=30, deadline=None)
@given(
    chunk=st.sampled_from([None, 48, 128, 512]),
    page_size=st.sampled_from([16, 64]),
    prefix=st.booleans(),
    swap=st.booleans(),
    faults=st.booleans(),
    deadline_ms=st.sampled_from([None, 30.0, 300.0]),
    n_requests=st.integers(2, 10),
    prompt_len=st.integers(20, 600),
    output_len=st.integers(1, 80),
    tightness=st.floats(0.15, 1.2),
    seed=st.integers(0, 50),
)
def test_books_equal_the_recount_after_every_step(
    chunk, page_size, prefix, swap, faults, deadline_ms, n_requests, prompt_len, output_len,
    tightness, seed,
):
    trace = poisson_trace(
        n_requests, 2000.0, prompt_len, output_len, seed=seed,
        shared_prefix_fraction=0.5 if prefix else 0.0, prefix_groups=2,
        prompt_jitter=0.5, output_jitter=0.5,
    )
    longest = max(-(-r.total_len // page_size) for r in trace)
    demand = sum(-(-r.total_len // page_size) for r in trace)
    pool = max(longest + 1, int(demand * tightness))
    engine = _engine(
        trace, chunk=chunk, page_size=page_size, prefix=prefix, swap=swap,
        faults=swap and faults, deadline_ms=deadline_ms, pool=pool,
    )
    _run_checking_books(engine)


class TestPressureCoverage:
    """Fixed points of the property where the events behind each book
    update surely happen, so a run without them cannot pass vacuously."""

    def test_recompute_preemption(self):
        trace = poisson_trace(8, 1e5, 300, 60, seed=2)
        report = _run_checking_books(_engine(trace, chunk=96, pool=30))
        assert report.preemptions > 0

    def test_swap_and_faults(self):
        trace = poisson_trace(8, 1e5, 300, 60, seed=2)
        report = _run_checking_books(_engine(trace, swap=True, faults=True, pool=24))
        assert report.swap_outs > 0 and report.swap_ins > 0
        assert report.healed_requests > 0

    def test_deadlines_and_prefix_cache(self):
        trace = poisson_trace(10, 1e5, 256, 40, seed=4, shared_prefix_fraction=0.5)
        report = _run_checking_books(_engine(trace, prefix=True, deadline_ms=500.0, pool=60))
        assert report.timed_out > 0 and report.completed > 0
        assert report.prefix_hit_tokens > 0

    def test_page_boundary_crossings(self):
        """Outputs long enough to cross several 16-token pages per request."""
        trace = poisson_trace(4, 1e5, 40, 70, seed=0)
        report = _run_checking_books(_engine(trace, page_size=16))
        assert report.total_generated_tokens == 4 * 70


class TestRecount:
    def _running_engine(self):
        engine = _engine(poisson_trace(4, 1e5, 200, 30, seed=1), chunk=64)
        for _ in range(6):
            engine._tick()
        assert engine.running.ready and len(engine.running.ready) < len(engine._running)
        return engine

    def test_auditor_names_a_drifted_committed_total(self):
        engine = self._running_engine()
        engine.running.committed_pages += 1
        auditor = InvariantAuditor(engine.allocator, table=engine.table, running=engine.running)
        with pytest.raises(InvariantViolation, match="committed-pages book says .* at step 6"):
            auditor.audit(step=6)

    def test_auditor_names_a_misordered_ready_list(self):
        engine = self._running_engine()
        engine.running.ready.reverse()
        engine.running.ready.append(engine._running[-1])
        with pytest.raises(InvariantViolation, match="decode-ready book"):
            InvariantAuditor(engine.allocator, running=engine.running).audit()

    def test_auditor_names_a_drifted_prefilling_book(self):
        engine = self._running_engine()
        assert engine.running.prefilling
        engine.running.prefilling.clear()
        with pytest.raises(InvariantViolation, match=r"prefilling book holds requests \[\]"):
            InvariantAuditor(engine.allocator, running=engine.running).audit()

    def test_auditor_names_a_stale_resident_id(self):
        engine = self._running_engine()
        engine.table.hold(10 ** 6)
        with pytest.raises(InvariantViolation, match="resident-id book holds"):
            InvariantAuditor(engine.allocator, running=engine.running).audit()

    def test_per_step_check_names_a_book_the_lists_disagree_with(self):
        """The step's conservation check reads the resident-id book, not
        the lists: a book that lost a running sequence's id fails it."""
        engine = self._running_engine()
        lost = engine._running[0].seq_id
        engine.table.unhold(lost)
        with pytest.raises(AssertionError, match=rf"resident-id book: (?!.*\b{lost}\b)"):
            engine._assert_conservation()

    def test_finish_recounts_without_an_auditor(self):
        engine = self._running_engine()
        engine.running.committed_pages -= 1
        with pytest.raises(InvariantViolation, match="committed-pages book .* at finish"):
            engine.finish()

    def test_periodic_audits_recount_the_books(self):
        engine = _engine(poisson_trace(6, 1e5, 200, 30, seed=1), chunk=64, audit_every=3)
        report = engine.run()
        assert report.audits > 1


def test_one_admission_calls_pages_for_a_fixed_number_of_times(monkeypatch):
    """Chunked admission reads the committed-pages total: the number of
    ``PageTable.pages_for`` calls one ``_admit`` makes does not depend on
    how many sequences are resident."""
    pages_for, calls = PageTable.pages_for, []
    counts = {}
    for residents in (50, 300):
        engine = _engine([Request(i, 0.0, 128, 16) for i in range(residents)], chunk=64)
        engine._tick()
        assert len(engine._running) == residents
        engine._queue.append(engine._make_lifecycle(Request(residents, 0.0, 128, 16)))
        with monkeypatch.context() as patch:
            patch.setattr(PageTable, "pages_for", lambda t, n: calls.append(n) or pages_for(t, n))
            engine._admit()
        assert len(engine._running) == residents + 1
        counts[residents], calls[:] = len(calls), []
    assert counts[50] == counts[300] > 0
