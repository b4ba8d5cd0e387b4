"""Fault injection and integrity checking on the tiered page store.

The store's side of the chaos contract: transient leg failures are
priced as retry+backoff stall, permanent failures and corruption land
live pages in the bad-page ledger (never silently), the page<->frame
bijection survives every outcome, and — with observers attached — the
demote/promote checksum pair catches byte damage even when no fault
plan predicted it.  The checksum pair runs whenever the store has a
plan, so the out-of-plan damage tests arm it with an all-zero-rate one.
"""

import numpy as np
import pytest

from repro.faults.plan import LATENCY_SPIKE_FACTOR, FaultPlan, FaultSpec
from repro.pages.allocator import PageAllocator
from repro.pages.tiers import TieredPageStore, TierObserver

DEVICE, HOST = 2, 3


class _ByteStore(TierObserver):
    """A few words of real content per frame, with checksum + damage."""

    def __init__(self, n_frames, words=4):
        rng = np.random.default_rng(0)
        self.data = rng.integers(0, 2**31, size=(n_frames, words), dtype=np.int64)

    def copy_frame(self, src, dst):
        self.data[dst] = self.data[src]

    def exchange_frames(self, a, b):
        self.data[[a, b]] = self.data[[b, a]]

    def frame_checksum(self, frame):
        return int(np.bitwise_xor.reduce(self.data[frame]) & 0xFFFFFFFF)

    def corrupt_frame(self, frame, salt):
        self.data[frame, 0] ^= salt | 1  # never a no-op


def _store(spec=None, observer=False):
    alloc = PageAllocator(DEVICE + HOST)
    tiers = TieredPageStore(
        alloc,
        DEVICE,
        HOST,
        page_nbytes=1000.0,
        faults=FaultPlan(spec) if spec is not None else None,
    )
    obs = None
    if observer:
        obs = _ByteStore(alloc.n_pages)
        tiers.add_observer(obs)
    alloc.allocate_many(alloc.n_pages)  # everything live
    return alloc, tiers, obs


def _round_trip(tiers, page=0):
    """Demote one live page and promote it back, one step each."""
    tiers.start_step()
    tiers.demote([page])
    assert not tiers.resident(page)
    tiers.start_step()
    tiers.ensure_resident([page])
    assert tiers.resident(page)


def _bijection_ok(tiers):
    assert sorted(tiers._frame_of) == list(range(tiers.n_pages))
    for page in range(tiers.n_pages):
        assert tiers._page_at[tiers._frame_of[page]] == page


class TestRetryPricing:
    def test_transient_faults_charge_retry_stall(self):
        spec = FaultSpec(seed=0, transfer_fault_rate=1.0)
        _, tiers, _ = _store(spec)
        tiers.start_step()
        tiers.demote([0])
        # Retries are stall even on a prefetch-booked leg: each failed
        # attempt's leg time plus its backoff.
        assert tiers.retry_backoff_ms_total > 0
        assert tiers.step_fault_ms > tiers.retry_backoff_ms_total
        tiers.start_step()
        tiers.ensure_resident([0])
        assert tiers.transfer_retries >= 2  # every leg failed at least once
        assert not tiers.has_bad_pages  # transient = content arrives
        _bijection_ok(tiers)

    def test_latency_spike_multiplies_the_leg(self):
        calm, spiky = _store()[1], _store(FaultSpec(seed=0, latency_spike_rate=1.0))[1]
        calm.start_step()
        spiky.start_step()
        base = calm.demote([0])
        spiked = spiky.demote([0])
        assert spiked == pytest.approx(base * LATENCY_SPIKE_FACTOR)

    def test_clean_plan_prices_like_no_plan(self):
        plain, planned = _store()[1], _store(FaultSpec(seed=0))[1]
        plain.start_step()
        planned.start_step()
        assert planned.demote([0]) == pytest.approx(plain.demote([0]))
        assert planned.transfer_retries == 0 and not planned.has_bad_pages


class TestLossAndCorruption:
    def test_permanent_fault_marks_live_page_lost(self):
        spec = FaultSpec(seed=0, transfer_fault_rate=1.0, permanent_fraction=1.0)
        _, tiers, _ = _store(spec)
        tiers.start_step()
        tiers.demote([0])
        assert tiers.lost_pages >= 1
        assert tiers.has_bad_pages
        drained = tiers.drain_bad_pages()
        assert drained.get(0) == "lost" or "lost" in drained.values()
        assert not tiers.has_bad_pages  # drain hands the ledger over
        _bijection_ok(tiers)  # loss never breaks the frame maps

    def test_dead_content_is_never_marked_bad(self):
        spec = FaultSpec(seed=0, transfer_fault_rate=1.0, permanent_fraction=1.0)
        alloc, tiers, _ = _store(spec)
        alloc.release(0)  # page 0's content is garbage now
        tiers.start_step()
        tiers.ensure_resident([2])  # may overwrite or displace page 0
        assert 0 not in tiers.drain_bad_pages()

    def test_analytical_corruption_detected_by_taint(self):
        """No observers, no bytes — the plan's own corruption events must
        still surface at the on-device verify, so analytical and executed
        chaos runs count identical checksum failures."""
        _, tiers, _ = _store(FaultSpec(seed=0, corruption_rate=1.0))
        _round_trip(tiers)
        assert tiers.injected_corruptions >= 1
        assert tiers.checksum_failures >= 1
        assert "corrupt" in tiers.drain_bad_pages().values()

    def test_executed_corruption_damages_and_detects_real_bytes(self):
        _, tiers, obs = _store(FaultSpec(seed=0, corruption_rate=1.0), observer=True)
        before = obs.data.copy()
        _round_trip(tiers)
        assert not np.array_equal(obs.data, before)  # bytes really damaged
        assert tiers.checksum_failures >= 1
        assert "corrupt" in tiers.drain_bad_pages().values()

    def test_out_of_plan_damage_caught_by_checksum_alone(self):
        """A plan that injects nothing: damage the host copy by hand and
        the promote-side digest check must flag it."""
        _, tiers, obs = _store(FaultSpec(seed=0), observer=True)
        tiers.start_step()
        tiers.demote([0])
        obs.data[tiers._frame_of[0], 0] ^= 0xDEAD  # bit rot on the host tier
        tiers.start_step()
        tiers.ensure_resident([0])
        assert tiers.injected_corruptions == 0
        assert tiers.checksum_failures == 1
        assert tiers.drain_bad_pages() == {0: "corrupt"}

    def test_checksums_run_only_with_a_plan(self):
        """Without a fault plan the store records no digests, so damage
        done by hand between demote and promote goes unchecked."""
        _, tiers, obs = _store(observer=True)
        tiers.start_step()
        tiers.demote([0])
        obs.data[tiers._frame_of[0], 0] ^= 0xDEAD
        tiers.start_step()
        tiers.ensure_resident([0])
        assert tiers.fault_plan is None
        assert tiers.checksum_failures == 0 and not tiers.has_bad_pages

    def test_intact_round_trip_raises_no_alarms(self):
        _, tiers, obs = _store(FaultSpec(seed=0), observer=True)
        before = obs.data.copy()
        _round_trip(tiers)
        assert tiers.checksum_failures == 0 and not tiers.has_bad_pages
        # Content moved frames but every page's words survived bit-exactly.
        for page in range(tiers.n_pages):
            np.testing.assert_array_equal(
                obs.data[tiers._frame_of[page]], before[page]
            )


class TestDeterminism:
    def test_same_spec_same_counters(self):
        spec = FaultSpec(
            seed=9,
            transfer_fault_rate=0.5,
            permanent_fraction=0.2,
            latency_spike_rate=0.3,
            corruption_rate=0.3,
        )
        runs = []
        for _ in range(2):
            _, tiers, _ = _store(spec)
            for page in (0, 1, 0):
                _round_trip(tiers, page)
            runs.append(
                (
                    tiers.transfer_retries,
                    tiers.lost_pages,
                    tiers.injected_corruptions,
                    tiers.checksum_failures,
                    tiers.retry_backoff_ms_total,
                    sorted(tiers.drain_bad_pages().items()),
                )
            )
        assert runs[0] == runs[1]
