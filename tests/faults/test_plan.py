"""Fault plan determinism: the contract the chaos cross-check stands on.

Two plans built from the same spec must draw identical outcomes for the
same transfer sequence — that is what keeps an analytical and an
executed chaos run in lock-step.  The stronger alignment contract:
``transfer()`` consumes a *fixed* number of variates per call, so zero
rates change *verdicts*, never stream positions.
"""

import pytest

from repro.faults.plan import (
    BACKOFF_BASE_MS,
    LATENCY_SPIKE_FACTOR,
    MAX_RETRIES,
    SLOW_STEP_FACTOR,
    FaultPlan,
    FaultSpec,
    demo_fault_spec,
)

TRANSFERS = 40


def _outcomes(plan):
    return [plan.transfer() for _ in range(TRANSFERS)]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "transfer_fault_rate",
            "permanent_fraction",
            "latency_spike_rate",
            "corruption_rate",
            "slow_step_rate",
        ],
    )
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(**{field: 1.5})
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(**{field: -0.1})

    def test_retry_and_factor_floors(self):
        """The retry budget allows at least one attempt, a backoff never
        refunds time, and a spike or slow step never speeds anything up."""
        assert isinstance(MAX_RETRIES, int) and MAX_RETRIES >= 1
        assert BACKOFF_BASE_MS >= 0.0
        assert LATENCY_SPIKE_FACTOR >= 1.0 and SLOW_STEP_FACTOR >= 1.0

    def test_all_transient_means_no_content_loss(self):
        assert FaultSpec(transfer_fault_rate=0.5, slow_step_rate=0.5).all_transient
        assert not FaultSpec(transfer_fault_rate=0.5, permanent_fraction=0.1).all_transient
        assert not FaultSpec(corruption_rate=0.1).all_transient
        assert not demo_fault_spec(0).all_transient


class TestDeterminism:
    def test_same_spec_same_draw_sequence(self):
        spec = demo_fault_spec(7)
        assert _outcomes(FaultPlan(spec)) == _outcomes(FaultPlan(spec))

    def test_different_seed_different_draws(self):
        a = _outcomes(FaultPlan(demo_fault_spec(7)))
        b = _outcomes(FaultPlan(demo_fault_spec(8)))
        assert a != b

    def test_zero_rate_category_does_not_shift_other_draws(self):
        """Adding corruption must not change which transfers fail — each
        call consumes the same variates whatever the rates are."""
        quiet = FaultPlan(FaultSpec(seed=3, transfer_fault_rate=0.4))
        noisy = FaultPlan(FaultSpec(seed=3, transfer_fault_rate=0.4, corruption_rate=0.9))
        for a, b in zip(_outcomes(quiet), _outcomes(noisy)):
            assert (a.failures, a.lost, a.spike) == (b.failures, b.lost, b.spike)

    def test_step_stream_is_independent_of_transfers(self):
        """Scheduler-step skew and transfer outcomes draw from separate
        streams: interleaving transfers must not perturb step draws."""
        spec = FaultSpec(seed=5, transfer_fault_rate=0.5, slow_step_rate=0.5)
        pure = FaultPlan(spec)
        steps_only = [pure.step_factor() for _ in range(32)]
        mixed = FaultPlan(spec)
        interleaved = []
        for _ in range(32):
            mixed.transfer()
            interleaved.append(mixed.step_factor())
        assert steps_only == interleaved


class TestOutcomes:
    def test_certain_fault_always_retries_or_loses(self):
        plan = FaultPlan(FaultSpec(seed=0, transfer_fault_rate=1.0, permanent_fraction=0.0))
        for out in _outcomes(plan):
            assert out.failures >= 1 and not out.lost

    def test_certain_permanent_fault_always_loses_at_budget(self):
        spec = FaultSpec(seed=0, transfer_fault_rate=1.0, permanent_fraction=1.0)
        for out in _outcomes(FaultPlan(spec)):
            assert out.lost and out.failures == MAX_RETRIES
            assert not out.corrupt  # lost content cannot also be corrupt

    def test_backoff_is_exponential(self):
        plan = FaultPlan(FaultSpec())
        assert [plan.backoff_ms(a) for a in range(3)] == [
            BACKOFF_BASE_MS,
            2 * BACKOFF_BASE_MS,
            4 * BACKOFF_BASE_MS,
        ]

    def test_clean_plan_is_clean(self):
        plan = FaultPlan(FaultSpec(seed=0))
        assert all(out.clean for out in _outcomes(plan))
        assert all(plan.step_factor() == 1.0 for _ in range(16))

    def test_slow_step_factor_applies(self):
        plan = FaultPlan(FaultSpec(seed=0, slow_step_rate=1.0))
        assert plan.step_factor() == SLOW_STEP_FACTOR

    def test_draw_counters_track_consumption(self):
        plan = FaultPlan(demo_fault_spec(0))
        _outcomes(plan)
        plan.step_factor()
        assert plan.transfers_drawn == TRANSFERS
        assert plan.steps_drawn == 1
