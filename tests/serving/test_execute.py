"""Real-token execution mode: the scheduler and the numerics share pages.

``execute=True`` runs every scheduler step's tokens through
TinyTransformer + the paged low-bit cache, with the runner's per-layer
pools indexed by the engine's own page table.  The schedule must be
byte-for-byte the analytical one (same clock, same admissions, same
preemptions), and every generated token must actually have been run.
"""

import pytest

from repro.attn import AnalyticalBackend, PagedBitBackend
from repro.model.config import TINY
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
        with pytest.raises(ValueError, match="token-executing"):
            EngineConfig(backend=AnalyticalBackend(kernel), execute=True, **_common(a100, 16))
        with pytest.raises(ValueError, match="token-executing"):
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

    def test_execute_rejects_non_paged_numeric_backend(self, a100):
        from repro.attn import ContiguousBitBackend

        with pytest.raises(ValueError, match="paged-bit"):
            EngineConfig(
                backend=ContiguousBitBackend(int4_stack(TINY, a100).kernel),
                execute=True,
                **_common(a100, 16),
            )
