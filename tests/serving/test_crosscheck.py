"""The cross-check library itself: comparators that can say no.

Every executed-mode suite and ``serve-sim`` smoke trusts
:mod:`repro.serving.crosscheck` for its verdicts, so this file pins the
comparators' *negative* space — a perturbed counter, clock or decode
stream must flip them to False — and the CI smoke geometry's positive.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.attn.paged import PagedBitKVCache
from repro.faults.plan import demo_fault_spec
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import ContinuousBatchingEngine, DeadlinePolicy, poisson_trace
from repro.serving.crosscheck import (
    SCHEDULE_FIELDS,
    crosscheck_chaos,
    crosscheck_execute,
    decoded_bit_exact,
    int4_stack,
    schedules_match,
)


@pytest.fixture(scope="module")
def smoke():
    """``crosscheck_execute`` on ci.yml's "real token execution" smoke geometry."""
    trace = poisson_trace(6, 50.0, prompt_len=48, output_len=8, seed=0)
    stack = int4_stack(TINY, get_arch("a100"))
    return crosscheck_execute(stack, trace, n_pages=96, max_batch=8, max_steps=200)


class TestSchedulesMatch:
    def test_ci_smoke_geometry_passes_every_check(self, smoke):
        assert smoke.checks == {"schedule_match": True}
        assert smoke.ok
        assert list(smoke.reports) == ["analytical", "executed"]

    @pytest.mark.parametrize("field", SCHEDULE_FIELDS)
    def test_any_single_counter_perturbation_is_caught(self, smoke, field):
        analytical, executed = smoke.reports["analytical"], smoke.reports["executed"]
        assert schedules_match(analytical, executed)
        perturbed = replace(executed, **{field: getattr(executed, field) + 1})
        assert not schedules_match(analytical, perturbed)
        assert not schedules_match(perturbed, analytical)

    def test_clock_perturbation_is_caught(self, smoke):
        analytical, executed = smoke.reports["analytical"], smoke.reports["executed"]
        drifted = replace(executed, sim_time_s=executed.sim_time_s * (1 + 1e-4))
        assert not schedules_match(analytical, drifted)
        # Float round-off (the same prices summed once more) is not drift.
        rounded = replace(executed, sim_time_s=executed.sim_time_s + 1e-12)
        assert schedules_match(analytical, rounded)

    def test_unexecuted_tokens_are_caught(self, smoke):
        analytical, executed = smoke.reports["analytical"], smoke.reports["executed"]
        skipped = replace(executed, executed_tokens=executed.executed_tokens - 1)
        assert not schedules_match(analytical, skipped)


def _streams(lengths):
    rng = np.random.default_rng(0)
    return {
        rid: [rng.standard_normal(4).astype(np.float32) for _ in range(n)]
        for rid, n in lengths.items()
    }


class TestDecodedBitExact:
    def test_identical_maps_match(self):
        a = _streams({0: 3, 1: 2})
        assert decoded_bit_exact(a, {rid: [s.copy() for s in steps] for rid, steps in a.items()})

    def test_one_flipped_bit_is_caught(self):
        a = _streams({0: 3, 1: 2})
        b = {rid: [s.copy() for s in steps] for rid, steps in a.items()}
        b[1][1].view(np.uint32)[0] ^= 1
        assert not decoded_bit_exact(a, b)
        assert not decoded_bit_exact(a, b, finished={0, 1})

    def test_strict_mode_rejects_missing_requests_and_short_streams(self):
        a = _streams({0: 3, 1: 2})
        assert not decoded_bit_exact({0: a[0]}, a)
        assert not decoded_bit_exact({0: a[0], 1: a[1][:1]}, a)

    def test_prefix_accepted_only_for_unfinished_requests(self):
        reference = _streams({0: 3, 1: 2})
        disturbed = {0: reference[0], 1: reference[1][:1]}  # request 1 stopped early
        assert decoded_bit_exact(disturbed, reference, finished={0})
        assert not decoded_bit_exact(disturbed, reference, finished={0, 1})
        # A request the disturbed run never decoded (shed) is fine ...
        assert decoded_bit_exact({0: reference[0]}, reference, finished={0})
        # ... but one the reference never saw, or a longer stream, is not.
        assert not decoded_bit_exact({**disturbed, 2: reference[0]}, reference, finished={0})
        assert not decoded_bit_exact(reference, disturbed, finished=set())


class TestTensorParallelSwap:
    """Executed tp=2 is one more *input* to the swap and chaos oracles.

    A TP rank is a head slice of the one paged pool, so demotion,
    promotion, the residual stash and heal/replay run through exactly the
    single-rank code; the offload/chaos demo geometry must pass every
    check unchanged with the head split switched on.
    """

    STACK = int4_stack(TINY, get_arch("a100"))
    TP2_SWAP = dict(tp=2, n_gpus=2, max_batch=16, preemption="swap", device_pages=8, host_pages=28)

    @staticmethod
    def _trace():
        return poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)

    def test_tp2_swap_passes_every_execute_check(self):
        result = crosscheck_execute(self.STACK, self._trace(), max_steps=2000, **self.TP2_SWAP)
        assert result.checks == {
            "schedule_match": True,
            "all_completed": True,
            "swap_vs_unpressured_bit_exact": True,
            "swap_faster_than_recompute": True,
        }
        assert result.reports["executed"].swap_outs > 0

    def test_tp2_swap_chaos_passes_every_chaos_check(self):
        chaos = dict(faults=demo_fault_spec(7), audit_every=10)
        result = crosscheck_chaos(self.STACK, self._trace(), chaos, max_steps=4000, **self.TP2_SWAP)
        assert result.checks == {
            "schedule_match": True,
            "all_damage_healed": True,
            "outputs_bit_exact_after_recovery": True,
            "exercised_retry": True,
            "exercised_heal": True,
        }

    def test_tp2_replicas2_chaos_passes_every_chaos_check(self):
        # ci.yml's cluster chaos smoke: the chaos geometry over two tp=2
        # replicas, judged on the merged report and merged decode map.
        chaos = dict(
            faults=demo_fault_spec(7),
            audit_every=10,
            deadline_policy=DeadlinePolicy(default_deadline_s=10e-3),
        )
        trace = poisson_trace(16, 100000.0, prompt_len=40, output_len=60, seed=3)
        result = crosscheck_chaos(
            self.STACK, trace, chaos, replicas=2, **{**self.TP2_SWAP, "max_batch": 3}
        )
        assert result.checks == {
            "schedule_match": True,
            "all_damage_healed": True,
            "outputs_bit_exact_after_recovery": True,
            "exercised_retry": True,
            "exercised_heal": True,
            "exercised_shed": True,
        }
        executed = result.reports["executed"]
        assert executed.replicas == 2
        for name in ("transfer_retries", "healed_pages", "shed", "audits"):
            assert getattr(executed, name) == sum(getattr(r, name) for r in executed.per_replica)

    def test_tp2_swapped_healed_decode_matches_single_rank_undisturbed(self):
        # The strongest form: sharded x swapped x healed against a
        # single-rank engine that never swapped and saw no fault.
        config = self.STACK.config(True, max_steps=4000, faults=demo_fault_spec(7), **self.TP2_SWAP)
        disturbed = ContinuousBatchingEngine(config, self._trace())
        report = disturbed.run()
        assert report.swap_outs > 0 and report.healed_pages > 0 and report.failed == 0
        assert all(type(store) is PagedBitKVCache for store in disturbed._runner.stores)
        plain = ContinuousBatchingEngine(
            self.STACK.config(True, max_steps=2000, max_batch=16, n_pages=8 + 28), self._trace()
        )
        assert plain.run().preemptions == 0
        assert decoded_bit_exact(disturbed.decoded, plain.decoded)
