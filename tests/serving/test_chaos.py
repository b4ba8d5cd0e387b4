"""Chaos serving: fault recovery, deadlines and degradation end to end.

The recovery contract this file pins down:

- **lock-step determinism** — an analytical and an executed chaos run
  built from the same :class:`FaultSpec` draw identical fault outcomes
  and produce the same schedule and counters;
- **bit-exact recovery** — whenever recovery succeeds (no FAILED
  requests, no undrained bad pages), every executed decode output under
  faults is bit-identical to the fault-free run: retries, swaps and
  heal replays cost time, never numerics;
- **graceful degradation** — deadline pressure ends in SHED/TIMED_OUT
  accounting and a goodput figure, never a wedged engine, and a plan
  that keeps destroying one sequence's pages exhausts the heal budget
  into FAILED instead of looping forever.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultSpec, demo_fault_spec
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import ContinuousBatchingEngine, DeadlinePolicy, poisson_trace
from repro.serving.crosscheck import decoded_bit_exact, int4_stack, schedules_match

#: The committed chaos demo geometry (see ``serve-sim --chaos``): an
#: over-capacity trace on a small device tier with a tight batch cap, so
#: faults land on real swap traffic and deadlines on a real queue.
DEVICE, HOST = 8, 28


def _trace():
    return poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)


def _config(a100, execute=True, **overrides):
    """The committed demo geometry on the library's INT4 stack."""
    kwargs = dict(
        max_batch=16,
        max_steps=4000,
        preemption="swap",
        device_pages=DEVICE,
        host_pages=HOST,
    )
    kwargs.update(overrides)
    return int4_stack(TINY, a100).config(execute, **kwargs)


class TestLockstepDeterminism:
    def test_executed_and_analytical_chaos_agree(self, a100):
        spec = demo_fault_spec(7)
        executed = ContinuousBatchingEngine(
            _config(a100, faults=spec, audit_every=10), _trace()
        ).run()
        analytical = ContinuousBatchingEngine(
            _config(a100, execute=False, faults=spec, audit_every=10), _trace()
        ).run()
        assert schedules_match(analytical, executed)
        assert executed.audits == analytical.audits
        assert executed.faults_enabled and analytical.faults_enabled

    def test_same_spec_reproduces_exactly(self, a100):
        spec = demo_fault_spec(3)
        a = ContinuousBatchingEngine(_config(a100, execute=False, faults=spec), _trace()).run()
        b = ContinuousBatchingEngine(_config(a100, execute=False, faults=spec), _trace()).run()
        assert a.to_dict() == b.to_dict()


class TestBitExactRecovery:
    def test_demo_plan_recovers_bit_exactly(self, a100):
        """The committed demo spec injects retries, loss and corruption;
        after healing, every decoded token matches the fault-free run."""
        chaos = ContinuousBatchingEngine(_config(a100, faults=demo_fault_spec(7)), _trace())
        report = chaos.run()
        assert report.transfer_retries > 0  # the plan actually fired
        assert report.healed_pages > 0
        assert report.failed == 0 and not chaos.swap.has_bad_pages
        assert report.completed == 8
        free = ContinuousBatchingEngine(_config(a100), _trace())
        free_report = free.run()
        assert free_report.completed == 8
        finished = {lc.request.req_id for lc in chaos.lifecycles if lc.finished}
        assert decoded_bit_exact(chaos.decoded, free.decoded, finished)

    def test_faults_cost_time_not_work(self, a100):
        chaos = ContinuousBatchingEngine(
            _config(a100, execute=False, faults=demo_fault_spec(7)), _trace()
        ).run()
        free = ContinuousBatchingEngine(_config(a100, execute=False), _trace()).run()
        assert chaos.total_generated_tokens == free.total_generated_tokens
        assert chaos.sim_time_s > free.sim_time_s

    def test_heal_budget_exhaustion_fails_the_request(self, a100):
        """A plan that destroys every transferred page keeps killing the
        same sequences; the heal budget must convert that into FAILED."""
        spec = FaultSpec(seed=0, transfer_fault_rate=1.0, permanent_fraction=1.0)
        report = ContinuousBatchingEngine(
            _config(a100, execute=False, faults=spec, max_heals=2), _trace()
        ).run()
        assert report.failed > 0
        assert report.healed_requests > 0
        assert report.completed + report.failed == 8  # nothing wedged or lost


class TestDeadlines:
    def test_pressure_ends_in_shed_and_timeout_accounting(self, a100):
        policy = DeadlinePolicy(default_deadline_s=6e-3)
        engine = ContinuousBatchingEngine(
            _config(a100, faults=demo_fault_spec(7), deadline_policy=policy, max_batch=3),
            _trace(),
        )
        report = engine.run()
        assert report.shed > 0
        assert report.timed_out > 0
        assert report.shed + report.timed_out + report.completed + report.failed == 8
        # Goodput only counts deadline-meeting requests, so it is bounded
        # by raw throughput and here strictly below it.
        assert 0 < report.goodput_tokens_per_s < report.sustained_tokens_per_s
        assert report.deadline_met == report.completed - (
            sum(1 for lc in engine.lifecycles if lc.finished and not lc.met_deadline)
        )

    def test_generous_deadline_changes_nothing(self, a100):
        policy = DeadlinePolicy(default_deadline_s=1e6)
        with_deadline = ContinuousBatchingEngine(
            _config(a100, execute=False, deadline_policy=policy), _trace()
        ).run()
        without = ContinuousBatchingEngine(_config(a100, execute=False), _trace()).run()
        assert with_deadline.shed == 0 and with_deadline.timed_out == 0
        assert with_deadline.completed == 8 and with_deadline.deadline_met == 8
        assert with_deadline.total_generated_tokens == without.total_generated_tokens
        assert with_deadline.goodput_tokens_per_s == pytest.approx(
            with_deadline.sustained_tokens_per_s
        )

    def test_per_request_deadline_beats_the_default(self, a100):
        trace = _trace()
        tight = [
            type(r)(**{**r.__dict__, "deadline_s": 1e-6}) if r.req_id == 7 else r
            for r in trace
        ]
        policy = DeadlinePolicy(default_deadline_s=1e6)
        report = ContinuousBatchingEngine(
            _config(a100, execute=False, deadline_policy=policy), tight
        ).run()
        assert report.shed + report.timed_out == 1
        assert report.completed == 7

    def test_shedding_can_be_disabled(self, a100):
        policy = DeadlinePolicy(default_deadline_s=6e-3, shed_on_admission=False)
        report = ContinuousBatchingEngine(
            _config(a100, execute=False, deadline_policy=policy, max_batch=3), _trace()
        ).run()
        assert report.shed == 0
        assert report.timed_out > 0  # pressure now lands entirely on timeouts


class TestAuditor:
    def test_auditor_runs_in_both_modes(self, a100):
        for execute in (True, False):
            report = ContinuousBatchingEngine(
                _config(a100, execute=execute, faults=demo_fault_spec(7), audit_every=5),
                _trace(),
            ).run()
            assert report.audits > 1  # periodic plus the final drain audit

    def test_audit_disabled_by_default(self, a100):
        report = ContinuousBatchingEngine(_config(a100, execute=False), _trace()).run()
        assert report.audits == 0


class TestConfigValidation:
    def test_faults_require_swap_preemption(self, a100):
        with pytest.raises(ValueError, match="swap"):
            _config(
                a100,
                execute=False,
                preemption="recompute",
                device_pages=None,
                host_pages=None,
                n_pages=DEVICE,
                faults=demo_fault_spec(0),
            )

    def test_audit_every_must_be_positive(self, a100):
        with pytest.raises(ValueError, match="audit_every"):
            _config(a100, execute=False, audit_every=0)

    def test_max_heals_floor(self, a100):
        with pytest.raises(ValueError, match="max_heals"):
            _config(a100, execute=False, max_heals=0)


class TestAllTransientProperty:
    """ISSUE satellite: under any all-transient plan (no loss, no rot)
    the engine completes every request and — executed — every decode
    output is bit-identical to the fault-free run."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fault_rate=st.floats(min_value=0.0, max_value=0.6),
        spike_rate=st.floats(min_value=0.0, max_value=0.4),
        slow_rate=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_all_transient_faults_complete_bit_identically(
        self, seed, fault_rate, spike_rate, slow_rate
    ):
        a100 = get_arch("a100")  # hypothesis forbids function-scoped fixtures
        spec = FaultSpec(
            seed=seed,
            transfer_fault_rate=fault_rate,
            latency_spike_rate=spike_rate,
            slow_step_rate=slow_rate,
        )
        assert spec.permanent_fraction == 0.0 and spec.corruption_rate == 0.0  # no content loss
        trace = poisson_trace(4, 100000.0, prompt_len=40, output_len=24, seed=5)
        chaos = ContinuousBatchingEngine(_config(a100, faults=spec), trace)
        report = chaos.run()
        assert report.completed == 4
        assert report.failed == 0 and report.healed_pages == 0
        free = ContinuousBatchingEngine(_config(a100), trace)
        free.run()
        assert decoded_bit_exact(chaos.decoded, free.decoded)
