"""Chunked prefill: mixed batches, partial-prefill preemption, TBT tail.

The deterministic tests hand-build traces and pass explicit ``n_pages``;
the hypothesis property builds staggered long-prompt traces where
whole-prompt admission provably stalls resident decodes, and checks that
chunking never worsens the p99 time-between-tokens while generating the
exact same tokens.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.inference import decode_step_ms, prefill_time_ms
from repro.model.memory import int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import Request, RequestLifecycle

ARCH = get_arch("a100")
MODEL = LLAMA31_8B


class ConstAttention:
    """Duck-typed attention system with a fixed per-layer latency."""

    def __init__(self, ms=0.01):
        self.ms = ms

    def decode_time_ms(self, geom):
        return self.ms


ATTN = ConstAttention()


def make_engine(requests, n_pages, chunk, page_size=64, max_batch=384, max_steps=None):
    return ContinuousBatchingEngine(
        EngineConfig(
            model=MODEL,
            arch=ARCH,
            fmt=int_format(4, MODEL),
            attention=ATTN,
            page_size=page_size,
            n_pages=n_pages,
            max_batch=max_batch,
            max_steps=max_steps,
            prefill_chunk_tokens=chunk,
        ),
        requests,
    )


def pool_for(trace, page_size=64, slack=4):
    """A pool that fits every request's full context simultaneously."""
    return sum(-(-r.total_len // page_size) for r in trace) + slack


def staggered_trace(prompt_len, base_output, n_followers, follow_output):
    """One long-decode request, then long prompts arriving mid-decode.

    Followers are spaced two whole-prompt prefill times apart, which
    guarantees each one is admitted in its own admission phase under
    whole-prompt scheduling (no two prefills merge into one stall), so the
    baseline TBT tail provably contains ``n_followers`` separate stalls.
    """
    prefill_s = prefill_time_ms(MODEL, ARCH, prompt_len) * 1e-3
    trace = [Request(req_id=0, arrival_s=0.0, prompt_len=prompt_len, output_len=base_output)]
    for i in range(n_followers):
        trace.append(
            Request(
                req_id=i + 1,
                arrival_s=prefill_s + (i + 1) * 2.0 * prefill_s,
                prompt_len=prompt_len,
                output_len=follow_output,
            )
        )
    return trace


class TestMixedScheduling:
    def test_single_request_identical_tokens_both_modes(self):
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=1000, output_len=12)]
        pages = pool_for(trace)
        whole = make_engine(trace, pages, chunk=None).run()
        chunked = make_engine(trace, pages, chunk=256).run()
        assert whole.total_generated_tokens == chunked.total_generated_tokens == 12
        assert whole.completed == chunked.completed == 1
        # 1000 tokens at 256/step -> 4 prefill-bearing steps, no mixing.
        assert chunked.prefill_steps == 4
        assert chunked.mixed_steps == 0

    def test_prefill_progress_state_machine(self):
        lc = RequestLifecycle(Request(req_id=0, arrival_s=0.0, prompt_len=100, output_len=4))
        assert lc.seq_id is None and not lc.prefill_done  # queued
        lc.seq_id = 0
        lc.prefill_target = 100
        assert not lc.prefill_done  # prefilling
        lc.prefilled = 100
        assert lc.prefill_done and not lc.finished  # decoding
        lc.finish_s = 1.0
        assert lc.finished

    def test_chunked_engine_walks_phases(self):
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=300, output_len=4)]
        engine = make_engine(trace, pool_for(trace), chunk=128, max_steps=2)
        engine.run()
        lc = engine.lifecycles[0]
        # Two steps of 128 tokens leave the prompt mid-prefill.
        assert lc.seq_id is not None and not lc.prefill_done
        assert lc.prefilled == 256
        assert engine.allocator.used_pages == -(-256 // 64)

    def test_mixed_steps_batch_prefill_with_decode(self):
        prefill_s = prefill_time_ms(MODEL, ARCH, 2048) * 1e-3
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=2048, output_len=64),
            Request(req_id=1, arrival_s=prefill_s * 3, prompt_len=2048, output_len=8),
        ]
        report = make_engine(trace, pool_for(trace), chunk=256).run()
        assert report.mixed_steps > 0
        assert report.completed == 2
        assert report.rejected == 0

    def test_rejected_oversized_request(self):
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=64 * 64, output_len=4),
            Request(req_id=1, arrival_s=0.0, prompt_len=128, output_len=4),
        ]
        report = make_engine(trace, n_pages=8, chunk=128).run()
        assert report.rejected == 1
        assert report.completed == 1


class TestPartialPrefillPreemption:
    def test_mid_prefill_preemption_releases_exact_pages(self):
        # Pool of 10 pages (640 tokens).  A is admitted and decodes; B's
        # chunked prefill fills the rest of the pool; growing A then
        # preempts B mid-prefill, which must release exactly B's chunk
        # reservation (the engine's conservation check runs every step).
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=256, output_len=96),
            Request(req_id=1, arrival_s=0.0, prompt_len=360, output_len=8),
        ]
        engine = make_engine(trace, n_pages=10, chunk=128)
        report = engine.run()
        assert report.preemptions >= 1
        assert engine.lifecycles[1].preemptions >= 1
        assert report.completed == 2
        assert engine.allocator.used_pages == 0
        assert engine.allocator.free_pages == engine.n_pages

    def test_preemption_resets_prefill_progress(self):
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=256, output_len=32),
            Request(req_id=1, arrival_s=0.0, prompt_len=320, output_len=8),
        ]
        engine = make_engine(trace, n_pages=9, chunk=128)
        report = engine.run()
        victim = engine.lifecycles[1]
        assert victim.preemptions >= 1
        # After the run everything finished; recompute re-prefilled from 0
        # and the re-admission target covered prompt + generated tokens.
        assert victim.finished
        assert report.total_generated_tokens == 40

    def test_conservation_assertion_trips_on_double_release(self):
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=128, output_len=4)]
        engine = make_engine(trace, pool_for(trace), chunk=64)
        # Sabotage: leak a page outside the table's books, then step.
        engine.allocator.allocate()
        with pytest.raises(AssertionError, match="conservation"):
            engine.run()

    def test_conservation_message_names_the_mismatched_refcounts(self):
        trace = [
            Request(req_id=0, arrival_s=0.0, prompt_len=128, output_len=40),
            Request(req_id=1, arrival_s=0.0, prompt_len=192, output_len=40),
        ]
        engine = make_engine(trace, pool_for(trace), chunk=64, max_steps=6)
        engine.run()  # stops mid-decode: both sequences resident, books clean
        engine._assert_conservation()
        first, second = (engine.table.sequences[lc.seq_id].pages for lc in engine.running.seqs)
        over_referenced, unreferenced = first[0], second[0]
        engine.allocator.acquire(over_referenced)  # one reference too many ...
        engine.allocator.release(unreferenced)  # ... and one mapping without one
        used = engine.allocator.used_pages
        with pytest.raises(AssertionError) as excinfo:
            engine._assert_conservation()
        assert str(excinfo.value) == (
            f"page conservation violated: residents map {used + 1} distinct pages, "
            f"allocator says {used} used + {engine.n_pages - used} reclaimable of "
            f"{engine.n_pages}; refcount mismatches: "
            f"{sorted([(over_referenced, 1, 2), (unreferenced, 1, 0)])}; sequences "
            "live but not resident: [], resident but not live: []"
        )

    def test_conservation_reports_a_mapping_with_no_reference(self):
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=128, output_len=40)]
        engine = make_engine(trace, pool_for(trace), chunk=64, max_steps=4)
        engine.run()
        (lc,) = engine.running.seqs
        held = engine.table.sequences[lc.seq_id].pages[-1]
        engine.allocator.release(held)  # the page goes back to the free list, still mapped
        with pytest.raises(AssertionError, match=rf"refcount mismatches: \[\({held}, 1, 0\)\]"):
            engine._assert_conservation()

    def test_conservation_names_a_sequence_the_scheduler_lost(self):
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=128, output_len=40)]
        engine = make_engine(trace, pool_for(trace), chunk=64, max_steps=4)
        engine.run()
        (lc,) = engine.running.seqs
        lost = lc.seq_id
        engine.running.seqs.clear()
        with pytest.raises(AssertionError, match=rf"live but not resident: \[{lost}\]"):
            engine._assert_conservation()


class TestTbtProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        prompt_len=st.integers(1024, 2048),
        base_output=st.integers(48, 88),
        n_followers=st.just(2),
        follow_output=st.integers(3, 6),
        chunk=st.sampled_from([128, 256]),
    )
    def test_chunking_never_worsens_p99_tbt(
        self, prompt_len, base_output, n_followers, follow_output, chunk
    ):
        """Sarathi's claim as a property: at equal page pool, chunked
        prefill never worsens p99 TBT and generates identical tokens.

        The trace keeps the TBT sample count under ~100 so the p99 sits at
        or above the second-largest sample, and the construction guarantees
        at least two separate whole-prompt stalls — so the baseline p99 is
        a stall, which a bounded mixed step always beats.
        """
        trace = staggered_trace(prompt_len, base_output, n_followers, follow_output)
        pages = pool_for(trace)
        whole = make_engine(trace, pages, chunk=None).run()
        chunked = make_engine(trace, pages, chunk=chunk).run()
        assert whole.completed == chunked.completed == len(trace)
        assert whole.total_generated_tokens == chunked.total_generated_tokens
        assert chunked.p99_tbt_s <= whole.p99_tbt_s * (1.0 + 1e-9)


class TestLongPromptAcceptance:
    def test_32k_prompt_strictly_improves_p99_tbt(self):
        """The ISSUE's acceptance trace: one 32k prompt against short
        decodes shows strictly lower p99 TBT with chunking at 512."""
        prefill_short = prefill_time_ms(MODEL, ARCH, 512) * 1e-3
        trace = [
            Request(req_id=i, arrival_s=0.01 * i, prompt_len=512, output_len=64)
            for i in range(4)
        ]
        trace.append(
            Request(
                req_id=9,
                arrival_s=4 * prefill_short + 0.5,
                prompt_len=32768,
                output_len=8,
            )
        )
        pages = pool_for(trace)
        whole = make_engine(trace, pages, chunk=None).run()
        chunked = make_engine(trace, pages, chunk=512).run()
        assert chunked.p99_tbt_s < whole.p99_tbt_s
        assert chunked.max_tbt_s < whole.max_tbt_s
        assert chunked.total_generated_tokens == whole.total_generated_tokens
        # The price: the 32k prompt's own first token arrives later.
        assert chunked.p99_ttft_s >= whole.p99_ttft_s

    def test_decode_step_gap_bounded_by_quantum(self):
        """While the 32k prompt prefills, resident TBT gaps stay within a
        small multiple of a pure decode step instead of one whole prefill."""
        trace = [Request(req_id=0, arrival_s=0.0, prompt_len=512, output_len=96)]
        prefill_short = prefill_time_ms(MODEL, ARCH, 512) * 1e-3
        trace.append(
            Request(req_id=1, arrival_s=prefill_short + 0.2, prompt_len=32768, output_len=4)
        )
        pages = pool_for(trace)
        engine = make_engine(trace, pages, chunk=512)
        report = engine.run()
        whole_prefill_s = prefill_time_ms(MODEL, ARCH, 32768) * 1e-3
        step_s = decode_step_ms(MODEL, ARCH, ATTN, 1, 33000) * 1e-3
        assert report.max_tbt_s < whole_prefill_s / 4
        assert report.max_tbt_s < step_s * 20
