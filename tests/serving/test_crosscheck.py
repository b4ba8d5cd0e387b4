"""The cross-check library itself: comparators that can say no.

Every executed-mode suite and ``serve-sim`` smoke trusts
:mod:`repro.serving.crosscheck` for its verdicts, so this file pins the
comparators' *negative* space — a perturbed counter, clock or decode
stream must flip them to False — a plain executed run's positive, and
that the driver refuses verdicts its ``FEATURES`` table does not owe.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.attn.paged import PagedBitKVCache
from repro.faults.plan import demo_fault_spec
from repro.gpu.arch import get_arch
from repro.model.config import TINY
from repro.serving import ContinuousBatchingEngine, DeadlinePolicy, poisson_trace
from repro.serving import crosscheck as crosscheck_module
from repro.serving.crosscheck import (
    FEATURES,
    SCHEDULE_FIELDS,
    crosscheck,
    decoded_bit_exact,
    int4_stack,
    owed,
    schedules_match,
)


def _smoke_run():
    """``crosscheck`` on a six-request executed geometry with no other feature."""
    trace = poisson_trace(6, 50.0, prompt_len=48, output_len=8, seed=0)
    stack = int4_stack(TINY, get_arch("a100"))
    return crosscheck(stack, trace, n_pages=96, max_batch=8, max_steps=200)


@pytest.fixture(scope="module")
def smoke():
    return _smoke_run()


#: The smallest ``crosscheck`` keywords that turn each FEATURES row on.
_KNOB = {
    "execute": {"execute": True},
    "swap": {"preemption": "swap"},
    "prefix_cache": {"prefix_cache": True},
    "prefill_chunk_tokens": {"prefill_chunk_tokens": 32},
    "disturbed": {"faults": demo_fault_spec(7)},
    "cluster": {"tp": 2},
}


class TestFeatures:
    """The obligation table read on its own, without running an engine."""

    @pytest.mark.parametrize("row", FEATURES, ids=lambda row: row.name)
    def test_each_row_is_recognised_by_its_own_knob(self, row):
        config = _KNOB[row.name]
        assert {each.name for each in FEATURES if each.on(config)} == {"execute", row.name}

    def test_every_verdict_belongs_to_one_row(self):
        # Equivalences are every verdict not in EXPECTATIONS, so a name
        # listed twice would blur which kind it is.
        names = [name for row in FEATURES for name in row.owes + row.owes_s + row.expects]
        assert len(names) == len(set(names))

    def test_nothing_is_owed_without_execute(self):
        for name in _KNOB:
            assert owed({**_KNOB[name], "execute": False}) == frozenset()

    @pytest.mark.parametrize("name", ["prefix_cache", "prefill_chunk_tokens"])
    def test_a_rescheduling_feature_drops_every_s_verdict(self, name):
        base = {**_KNOB["swap"], **_KNOB["cluster"]}
        s_verdicts = {v for row in FEATURES for v in row.owes_s}
        assert {"swap_vs_unpressured_bit_exact", "cluster_bit_exact_vs_single_engine"} <= owed(
            base
        )
        rescheduled = owed({**base, **_KNOB[name]})
        assert not rescheduled & s_verdicts
        assert {"schedule_match", "exactly_once_across_replicas"} <= rescheduled

    @pytest.mark.parametrize(
        "row, excluded",
        [(row, name) for row in FEATURES for name in row.excludes],
        ids=lambda each: getattr(each, "name", each),
    )
    def test_an_excluded_composition_raises_the_rows_rejection(self, row, excluded):
        config = {**_KNOB[row.name], **_KNOB[excluded]}
        with pytest.raises(ValueError, match=re.escape(row.rejection)):
            owed(config)
        trace = poisson_trace(2, 100.0, prompt_len=16, output_len=2, seed=0)
        stack = int4_stack(TINY, get_arch("a100"))
        with pytest.raises(ValueError, match=re.escape(row.rejection)):
            crosscheck(stack, trace, n_pages=16, **config)


class TestSchedulesMatch:
    def test_plain_execute_passes_every_check(self, smoke):
        assert smoke.checks == {"schedule_match": True}
        assert smoke.ok
        assert list(smoke.reports) == ["analytical", "executed"]

    def test_a_row_the_code_does_not_follow_raises(self, monkeypatch):
        # FEATURES is the one statement of the obligations: crosscheck()
        # refuses to return verdicts that disagree with it.
        execute, *rest = FEATURES
        monkeypatch.setattr(crosscheck_module, "FEATURES", (execute._replace(owes=()), *rest))
        with pytest.raises(AssertionError, match="FEATURES owes"):
            _smoke_run()

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

    def test_clock_can_be_left_out_but_counters_cannot(self, smoke):
        # The share-vs-copy comparison under tiers: copy mode moves more
        # bytes, so only the clock may differ.
        analytical, executed = smoke.reports["analytical"], smoke.reports["executed"]
        drifted = replace(executed, sim_time_s=executed.sim_time_s * 2)
        assert schedules_match(analytical, drifted, clock=False)
        assert not schedules_match(
            analytical, replace(drifted, swap_outs=drifted.swap_outs + 1), clock=False
        )


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
    #: What ``tp > 1 or replicas > 1`` adds to every checked run.
    TOPOLOGY = {
        "exactly_once_across_replicas": True,
        "tp_decode_bit_exact_vs_single_rank": True,
        "cluster_bit_exact_vs_single_engine": True,
    }

    @staticmethod
    def _trace():
        return poisson_trace(8, 100000.0, prompt_len=40, output_len=60, seed=3)

    def test_tp2_swap_passes_every_execute_check(self):
        result = crosscheck(self.STACK, self._trace(), max_steps=2000, **self.TP2_SWAP)
        assert result.checks == {
            "schedule_match": True,
            "all_completed": True,
            "swap_vs_unpressured_bit_exact": True,
            "swap_faster_than_recompute": True,
            **self.TOPOLOGY,
        }
        assert result.reports["executed"].swap_outs > 0

    def test_tp2_swap_chaos_passes_every_chaos_check(self):
        chaos = dict(faults=demo_fault_spec(7), audit_every=10)
        result = crosscheck(self.STACK, self._trace(), max_steps=4000, **chaos, **self.TP2_SWAP)
        assert result.checks == {
            "schedule_match": True,
            "all_damage_healed": True,
            "outputs_bit_exact_after_recovery": True,
            "exercised_retry": True,
            "exercised_heal": True,
            **self.TOPOLOGY,
        }

    def test_tp2_replicas2_chaos_passes_every_chaos_check(self):
        # The chaos geometry over two tp=2 replicas (twice the requests, a
        # deadline sized to the all-reduce tax), judged on the merged
        # report and merged decode map.
        chaos = dict(
            faults=demo_fault_spec(7),
            audit_every=10,
            deadline_policy=DeadlinePolicy(default_deadline_s=10e-3),
        )
        trace = poisson_trace(16, 100000.0, prompt_len=40, output_len=60, seed=3)
        result = crosscheck(
            self.STACK, trace, replicas=2, **chaos, **{**self.TP2_SWAP, "max_batch": 3}
        )
        assert result.checks == {
            "schedule_match": True,
            "all_damage_healed": True,
            "outputs_bit_exact_after_recovery": True,
            "exercised_retry": True,
            "exercised_heal": True,
            "exercised_shed": True,
            **self.TOPOLOGY,
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


class TestFeatureProduct:
    """Every composition of engine features is green or rejected — no middle.

    The whole product swap x prefix cache x tp x replicas x chunking x
    faults goes through the one driver at two arrival rates (requests
    trickling in against the clock, and all at once): a point either
    raises the one documented ``ValueError`` or returns exactly the
    equivalences its features owe, every one True.  Expectations are
    about the workload, not the engine, and are not asserted here.
    """

    STACK = TestTensorParallelSwap.STACK

    @pytest.mark.parametrize("faults", [False, True], ids=["calm", "faults"])
    @pytest.mark.parametrize("chunk", [None, 32, 48])
    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("prefix", [False, True], ids=["noprefix", "prefix"])
    @pytest.mark.parametrize("swap", [False, True], ids=["recompute", "swap"])
    def test_green_or_rejected(self, swap, prefix, tp, replicas, chunk, faults):
        config = dict(
            tp=tp,
            n_gpus=tp,
            max_batch=8,
            max_steps=4000,
            prefix_cache=prefix,
            prefill_chunk_tokens=chunk,
            **(
                dict(preemption="swap", device_pages=8, host_pages=28)
                if swap
                else dict(n_pages=24)
            ),
            **(dict(faults=demo_fault_spec(7), audit_every=10) if faults else {}),
        )
        rejected = faults and (not swap or prefix or chunk is not None)
        for rate in (200.0, 100000.0):
            trace = poisson_trace(
                6,
                rate,
                prompt_len=72,
                output_len=14,
                seed=3,
                prompt_jitter=0.3,
                shared_prefix_fraction=0.5 if prefix else 0.0,
                prefix_groups=2,
            )
            if rejected:
                with pytest.raises(ValueError):
                    crosscheck(self.STACK, trace, replicas=replicas, **config)
                continue
            result = crosscheck(self.STACK, trace, replicas=replicas, **config)
            assert set(result.equivalences) == owed({**config, "replicas": replicas})
            assert all(result.equivalences.values()), (rate, result.checks)
            if swap and rate == 100000.0:  # a burst over an 8-page device tier must swap
                assert result.reports["executed"].swap_outs > 0

    def test_prefix_hit_pages_are_promoted_on_the_schedule(self):
        # A whole-prompt admission with prefix-cache hits *reads* the hit
        # pages; under tiers a swapped-out sharer may have taken them off
        # device.  The engine must promote them itself (priced, in both
        # twins) — left to the executed numerics' fault-in fallback, the
        # executed run paid 12 tier faults against 9 scheduled.
        trace = poisson_trace(
            8,
            100000.0,
            prompt_len=96,
            output_len=60,
            seed=3,
            shared_prefix_fraction=0.5,
            prefix_groups=3,
        )
        result = crosscheck(
            self.STACK, trace, preemption="swap", device_pages=8, host_pages=28, prefix_cache=True
        )
        assert all(result.equivalences.values()), result.checks
        analytical, executed = result.reports["analytical"], result.reports["executed"]
        assert executed.prefix_hit_tokens > 0 and executed.swap_outs > 0
        assert executed.offload_faults == analytical.offload_faults
        assert executed.offload_h2d_bytes == analytical.offload_h2d_bytes
