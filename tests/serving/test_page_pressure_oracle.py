"""The one-pass decode growth against the per-decoder reference step.

A step bumps its decoders' lengths with one
``PageTable.append_within_pages`` pass, extends only the page crossers
one by one, and walks only the running set's ``prefilling`` book for
chunks.  Page ids go out in decoder order and a starved crosser evicts
the youngest resident, so under page pressure the schedule must match
:class:`tests.reference_step.PerDecoderEngine` exactly.  The property
draws tight pools, chunked and whole-prompt admission, the prefix cache
on and off, and ``max_batch``; after every step both engines must hold the
same block tables (page ids) and have evicted the same requests in the
same order, and at the end their reports must be equal.  The engines are
analytical (no numerics, no BLAS).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.arch import get_arch
from repro.model.config import LLAMA31_8B
from repro.model.memory import int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.request import poisson_trace
from tests.reference_step import PerDecoderEngine

MODEL = LLAMA31_8B


class ConstAttention:
    def decode_time_ms(self, geom):
        return 0.01


def _pair(trace, **config):
    config = EngineConfig(
        model=MODEL,
        arch=get_arch("a100"),
        fmt=int_format(4, MODEL),
        attention=ConstAttention(),
        **config,
    )
    return ContinuousBatchingEngine(config, trace), PerDecoderEngine(config, trace)


def _log_evictions(engine):
    """Record the request id of every requeue, in order."""
    evicted, requeue = [], engine._requeue

    def logged(lc, **kwargs):
        evicted.append(lc.request.req_id)
        requeue(lc, **kwargs)

    engine._requeue = logged
    return evicted


def _block_tables(engine):
    table = engine.table
    return [(lc.request.req_id, table.sequences[lc.seq_id].pages) for lc in engine._running]


def _run_in_lockstep(engine, reference):
    evicted, reference_evicted = _log_evictions(engine), _log_evictions(reference)
    while True:
        ticked = engine._tick()
        assert reference._tick() == ticked
        step = engine._steps
        assert _block_tables(engine) == _block_tables(reference), f"step {step}"
        assert evicted == reference_evicted, f"step {step}"
        assert engine.running.check() is None, f"step {step}"
        if not ticked:
            break
    report = engine.finish()
    assert report.to_dict() == reference.finish().to_dict()
    return report


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.sampled_from([None, 32, 96, 256]),
    page_size=st.sampled_from([16, 32]),
    prefix=st.booleans(),
    max_batch=st.integers(1, 12),
    n_requests=st.integers(2, 12),
    prompt_len=st.integers(8, 160),
    output_len=st.integers(1, 96),
    tightness=st.floats(0.05, 1.0),
    seed=st.integers(0, 50),
)
def test_one_pass_growth_matches_the_per_decoder_step(
    chunk, page_size, prefix, max_batch, n_requests, prompt_len, output_len, tightness, seed
):
    trace = poisson_trace(
        n_requests,
        5000.0,
        prompt_len,
        output_len,
        seed=seed,
        shared_prefix_fraction=0.5 if prefix else 0.0,
        prefix_groups=2,
        prompt_jitter=0.5,
        output_jitter=0.5,
    )
    longest = max(-(-r.total_len // page_size) for r in trace)
    demand = sum(-(-r.total_len // page_size) for r in trace)
    pool = max(longest, int(demand * tightness))
    engine, reference = _pair(
        trace,
        page_size=page_size,
        n_pages=pool,
        max_batch=max_batch,
        prefill_chunk_tokens=chunk,
        prefix_cache=prefix,
    )
    _run_in_lockstep(engine, reference)


class TestPressureCoverage:
    """Fixed points of the property where the events it compares surely
    happen, so it cannot pass vacuously."""

    def test_decoders_cross_pages_together_and_get_evicted(self):
        """Whole-prompt admission over a tight pool: equal prompts cross
        their page boundaries on the same step, and growth evicts."""
        trace = poisson_trace(8, 1e6, 32, 80, seed=1)
        engine, reference = _pair(trace, page_size=16, n_pages=30, max_batch=8)
        report = _run_in_lockstep(engine, reference)
        assert report.preemptions > 0
        assert report.completed == 8

    def test_chunked_prefix_cache_under_pressure(self):
        trace = poisson_trace(
            10, 5000.0, 120, 60, seed=4, shared_prefix_fraction=0.5, prompt_jitter=0.4
        )
        engine, reference = _pair(
            trace, page_size=16, n_pages=40, max_batch=6, prefill_chunk_tokens=48, prefix_cache=True
        )
        report = _run_in_lockstep(engine, reference)
        assert report.preemptions > 0 and report.prefix_hit_tokens > 0
        assert report.mixed_steps > 0
