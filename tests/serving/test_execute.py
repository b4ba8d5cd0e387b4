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
