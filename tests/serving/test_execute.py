"""Real-token execution mode: the scheduler and the numerics share pages.

``execute=True`` runs every scheduler step's tokens through
TinyTransformer + the paged low-bit cache, with the runner's per-layer
pools indexed by the engine's own page table.  The schedule must be
byte-for-byte the analytical one (same clock, same admissions, same
preemptions), and every generated token must actually have been run.
"""

import pytest

from repro.__main__ import main
from repro.attn import AnalyticalBackend, PagedBitBackend
from repro.attn.runner import ModelRunner
from repro.faults.plan import demo_fault_spec
from repro.model.config import TINY
from repro.model.transformer import TinyTransformer
from repro.serving import ContinuousBatchingEngine, EngineConfig, poisson_trace
from repro.serving.crosscheck import crosscheck, int4_stack
from repro.serving.swap import SwapPreemption


def _common(a100, n_pages):
    """Raw ``EngineConfig`` kwargs, for the validation tests below."""
    stack = int4_stack(TINY, a100)
    return dict(model=TINY, arch=a100, fmt=stack.fmt, page_size=stack.nr, n_pages=n_pages)


def _run_pair(a100, trace, n_pages, prefill_chunk=None):
    """(analytical, executed) reports of a run whose schedules matched."""
    result = crosscheck(
        int4_stack(TINY, a100),
        trace,
        n_pages=n_pages,
        max_batch=8,
        max_steps=400,
        prefill_chunk_tokens=prefill_chunk,
    )
    assert result.ok, result.checks
    return result.reports["analytical"], result.reports["executed"]


class TestExecuteMode:
    def test_schedule_matches_analytical(self, a100):
        trace = poisson_trace(6, 50.0, prompt_len=48, output_len=8, seed=3)
        analytical, executed = _run_pair(a100, trace, n_pages=96)
        assert analytical.executed_tokens is None
        assert executed.executed_tokens == executed.total_generated_tokens

    def test_executes_through_preemption_and_recompute(self, a100):
        # A pool tight enough that decode growth forces a preemption; the
        # victim recomputes its full context through the runner's recorded
        # input program on re-admission.
        trace = poisson_trace(6, 100.0, prompt_len=40, output_len=30, seed=0)
        _, executed = _run_pair(a100, trace, n_pages=7)
        assert executed.preemptions > 0

    def test_executes_under_chunked_prefill(self, a100):
        trace = poisson_trace(5, 100.0, prompt_len=70, output_len=10, seed=1)
        _, executed = _run_pair(a100, trace, n_pages=12, prefill_chunk=32)
        assert executed.prefill_steps > len(trace)  # prompts really were chunked

    def test_execute_requires_numeric_backend(self, a100):
        kernel = int4_stack(TINY, a100).kernel
        with pytest.raises(ValueError, match="token-executing paged-bit"):
            EngineConfig(backend=AnalyticalBackend(kernel), execute=True, **_common(a100, 16))
        with pytest.raises(ValueError, match="token-executing paged-bit"):
            EngineConfig(attention=kernel, execute=True, **_common(a100, 16))

    def test_execute_requires_page_size_nr(self, a100):
        kernel = int4_stack(TINY, a100).kernel
        common = _common(a100, 16)
        common["page_size"] *= 2
        with pytest.raises(ValueError, match="N_r"):
            ContinuousBatchingEngine(
                EngineConfig(backend=PagedBitBackend(kernel), execute=True, **common),
                poisson_trace(2, 10.0, prompt_len=16, output_len=2),
            )

    def test_execute_requires_explicit_pool_size(self, a100):
        kernel = int4_stack(TINY, a100).kernel
        common = _common(a100, None)
        with pytest.raises(ValueError, match="n_pages"):
            EngineConfig(backend=PagedBitBackend(kernel), execute=True, **common)

    def test_config_requires_some_attention(self, a100):
        with pytest.raises(ValueError, match="attention"):
            EngineConfig(model=TINY, arch=a100, fmt=int4_stack(TINY, a100).fmt)


class TestOneForwardPerPrefill:
    """A replay's consumed decode tokens ride its prefill chunk's forward.

    Every ``ModelRunner.prefill`` call, a recompute replay or a heal
    included, makes exactly one transformer forward; a per-token fallback
    to ``decode_step`` would show up here as extra forwards.
    """

    @pytest.fixture
    def forwards(self, monkeypatch):
        """Forwards per ``ModelRunner.prefill`` call, plus each call's decode tail."""
        calls, tails, inside = [], [], []

        def counted(name):
            original = getattr(TinyTransformer, name)

            def wrapper(self, *args, **kwargs):
                if inside:
                    inside[-1] += 1
                if name == "prefill_chunk":
                    tails.append(kwargs.get("decode_tail", 0))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(TinyTransformer, name, wrapper)

        counted("prefill_chunk")
        counted("decode_step")
        prefill = ModelRunner.prefill

        def counting_prefill(self, lc, n_tokens):
            inside.append(0)
            try:
                prefill(self, lc, n_tokens)
            finally:
                calls.append(inside.pop())

        monkeypatch.setattr(ModelRunner, "prefill", counting_prefill)
        return calls, tails

    def test_recompute_replays(self, capsys, forwards):
        main(["serve-sim", "--model", "tiny", "--execute", "--pages", "16", "--requests", "16",
              "--rate", "100000", "--prompt-len", "40", "--output-len", "60", "--seed", "3"])
        assert "check schedule_match: True" in capsys.readouterr().out  # exits 1 on a False check
        calls, tails = forwards
        assert calls and set(calls) == {1}
        assert sum(tail > 0 for tail in tails) >= 4  # replays of consumed decode tokens ran

    def test_heal_replays(self, a100, forwards):
        config = int4_stack(TINY, a100).config(
            True, max_batch=16, max_steps=4000, preemption="swap", device_pages=8,
            host_pages=28, faults=demo_fault_spec(7),
        )
        trace = poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)
        report = ContinuousBatchingEngine(config, trace).run()
        assert report.healed_requests > 0 and report.completed == len(trace)
        calls, tails = forwards
        assert calls and set(calls) == {1}
        assert sum(tail > 0 for tail in tails) >= 4


#: Chunked executed runs, as ``(poisson_trace kwargs, EngineConfig kwargs)``.
#: ``evict_held``: a 7-page pool where a decoder's one-token grow evicts a
#: sequence whose chunk is still held for the step's forward; ``copy``:
#: prefix-cache hits cloned into private pages (``prefix_share=False``);
#: ``tiered``: swap preemption, whose chunks execute at once.
CHUNKED_RUNS = {
    "evict_held": (
        dict(n_requests=6, rate_rps=1e5, prompt_len=40, output_len=40, seed=0, output_jitter=0.5),
        dict(n_pages=7, max_batch=8, prefill_chunk_tokens=32),
    ),
    "copy": (
        dict(
            n_requests=8,
            rate_rps=2000.0,
            prompt_len=128,
            output_len=24,
            seed=7,
            shared_prefix_fraction=0.5,
            prefix_groups=2,
        ),
        dict(
            n_pages=48,
            max_batch=8,
            prefill_chunk_tokens=32,
            prefix_cache=True,
            prefix_share=False,
        ),
    ),
    "tiered": (
        dict(n_requests=8, rate_rps=1e5, prompt_len=40, output_len=60, seed=3),
        dict(
            max_batch=8,
            preemption="swap",
            device_pages=8,
            host_pages=28,
            prefill_chunk_tokens=32,
        ),
    ),
}


def _engine(a100, name):
    trace_kwargs, config = CHUNKED_RUNS[name]
    trace = poisson_trace(**trace_kwargs)
    config = int4_stack(TINY, a100).config(True, max_steps=4000, **config)
    return ContinuousBatchingEngine(config, trace)


class TestOneForwardPerStep:
    """A mixed step's prefill chunks ride its decode rows' forward.

    The reference is the execution where every chunk runs its own forward
    the moment it is scheduled: holding a chunk for the step's
    ``decode_batch`` must not move one decoded bit.
    """

    @pytest.fixture
    def held_victims(self, monkeypatch):
        """Sequences a decoder's grow evicted while their chunk was held."""
        victims, growing = [], []
        extend = ContinuousBatchingEngine._extend
        on_preempt = ModelRunner.on_preempt

        def tracked_extend(self, lc, n_tokens):
            growing.append(lc.prefill_done)
            try:
                return extend(self, lc, n_tokens)
            finally:
                growing.pop()

        def tracked_preempt(self, lc):
            prog = self._programs[lc.request.req_id]
            if growing and growing[-1] and any(p is prog for p, _, _ in self._held):
                victims.append(lc.request.req_id)
            on_preempt(self, lc)

        monkeypatch.setattr(ContinuousBatchingEngine, "_extend", tracked_extend)
        monkeypatch.setattr(ModelRunner, "on_preempt", tracked_preempt)
        return victims

    @pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
    def test_bit_exact_with_a_forward_per_chunk(self, a100, monkeypatch, held_victims, name):
        merged = _engine(a100, name)
        report = merged.run()
        assert report.completed == report.n_requests
        assert report.mixed_steps > 0
        if name == "evict_held":
            assert held_victims
        with monkeypatch.context() as m:
            prefill = ModelRunner.prefill
            m.setattr(ModelRunner, "prefill", lambda self, lc, n, hold=False: prefill(self, lc, n))
            stepped = _engine(a100, name)
            stepped.run()
        assert merged.decoded.keys() == stepped.decoded.keys()
        for req_id, rows in stepped.decoded.items():
            assert [r.tobytes() for r in merged.decoded[req_id]] == [r.tobytes() for r in rows]

    @pytest.mark.parametrize("name", sorted(CHUNKED_RUNS))
    def test_crosscheck_green(self, a100, name):
        trace_kwargs, config = CHUNKED_RUNS[name]
        # A prefix-cache run's crosscheck owes its copy-mode twin itself
        # (``share_vs_copy_bit_exact``), so it is given the sharing run.
        config = {k: v for k, v in config.items() if k != "prefix_share"}
        trace = poisson_trace(**trace_kwargs)
        result = crosscheck(int4_stack(TINY, a100), trace, max_steps=4000, **config)
        assert result.checks and result.ok, result.checks

    def test_tiered_chunked_tier_traffic_pinned(self, a100):
        """Exact tier traffic of the ``tiered`` run, whose chunks promote
        their read sets as prefetch and execute at once, with the chunk
        phase's pins dropped before the decoders' residency walk.  The
        equivalences above hold whatever that traffic is."""
        report = _engine(a100, "tiered").run()
        assert report.completed == report.n_requests and report.mixed_steps > 0
        assert (report.swap_outs, report.swap_ins, report.offload_faults) == (10, 10, 8)
        assert (report.offload_h2d_bytes, report.offload_d2h_bytes) == (139776, 99456)
        exact = dict(rel=1e-12, abs=0.0)
        assert report.offload_stall_s == pytest.approx(0.00013139776, **exact)
        assert report.offload_overlapped_s == pytest.approx(0.0007656856149507634, **exact)
        assert report.sim_time_s == pytest.approx(0.013271036958770964, **exact)

    def test_tiered_chunk_reads_are_their_own_pin_phase(self, a100, monkeypatch):
        """Each chunk's promotion first drops the pins of the chunk before it.

        In this run one step promotes two chunks whose read sets, each with
        pages off the device tier, together exceed its 6 pages.  Were the
        first chunk's pages still pinned, the second's promotions would take
        other victims, and the tier traffic pinned here would move.
        """
        steps = []
        start_step = SwapPreemption.start_step
        promote = SwapPreemption.promote_read_set

        def counted_start(self):
            steps.append([])
            return start_step(self)

        def recorded_promote(self, lc, tokens, prefill_s=None):
            if prefill_s is None:
                pages = self._pages(lc)[: tokens // self._table.page_size]
                missing = sum(not self.tiers.resident(page) for page in pages)
                steps[-1].append((len(pages), missing))
            return promote(self, lc, tokens, prefill_s)

        monkeypatch.setattr(SwapPreemption, "start_step", counted_start)
        monkeypatch.setattr(SwapPreemption, "promote_read_set", recorded_promote)
        trace = poisson_trace(4, 1e5, prompt_len=128, output_len=24, seed=0)
        swap = dict(preemption="swap", device_pages=6, host_pages=40, prefill_chunk_tokens=192)
        config = int4_stack(TINY, a100).config(True, max_steps=4000, max_batch=8, **swap)
        report = ContinuousBatchingEngine(config, trace).run()
        assert report.completed == report.n_requests
        assert any(
            len(chunks) >= 2
            and all(missing for _, missing in chunks)
            and sum(n for n, _ in chunks) > config.device_pages
            for chunks in steps
        ), steps
        assert (report.swap_outs, report.swap_ins, report.offload_faults) == (3, 3, 9)
        assert (report.offload_h2d_bytes, report.offload_d2h_bytes) == (86016, 56448)
        assert report.sim_time_s == pytest.approx(0.004902274036193185, rel=1e-12, abs=0.0)

    def test_one_forward_per_tick_unless_a_hook_flushes(self, a100, monkeypatch):
        """Untiered and chunked, every tick that runs tokens makes exactly
        one forward through the two seams; a tick makes more only when a
        runner hook had to run held chunks first."""
        forwards, flushes, depth = [0], [0], []

        def counted(name):
            original = getattr(TinyTransformer, name)

            def wrapper(self, *args, **kwargs):
                forwards[-1] += not depth
                depth.append(1)
                try:
                    return original(self, *args, **kwargs)
                finally:
                    depth.pop()

            monkeypatch.setattr(TinyTransformer, name, wrapper)

        def flushing(name):
            original = getattr(ModelRunner, name)

            def wrapper(self, *args, **kwargs):
                flushes[-1] += bool(self._held)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(ModelRunner, name, wrapper)

        counted("prefill_chunk")
        counted("decode_step")
        for name in ("on_admit", "on_preempt", "on_abort", "on_finish"):
            flushing(name)
        tick = ContinuousBatchingEngine._tick

        def counted_tick(self):
            forwards.append(0)
            flushes.append(0)
            return tick(self)

        monkeypatch.setattr(ContinuousBatchingEngine, "_tick", counted_tick)
        report = _engine(a100, "evict_held").run()
        ticks = [(f, h) for f, h in zip(forwards, flushes) if f]
        assert len(ticks) == report.prefill_steps + report.decode_steps - report.mixed_steps
        assert any(h for _, h in ticks)
        assert all(f == 1 + h for f, h in ticks), ticks
