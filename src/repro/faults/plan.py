"""Deterministic, seedable fault plans for the tiered page store.

A :class:`FaultSpec` is pure configuration: rates and severities for
each fault category.  A :class:`FaultPlan` is the live oracle built from
it — every consumer (the analytical engine and the executed engine of a
cross-checked pair) constructs its *own* plan from the same spec, and
because the two runs issue identical transfer sequences (the PR 7
schedule-equality contract) they draw identical outcomes.

Determinism rules:

- Each fault category draws from its own seeded
  :func:`numpy.random.default_rng` stream, so adding a category never
  perturbs another's draws.
- :meth:`FaultPlan.transfer` consumes a *fixed* number of variates per
  call regardless of the outcome, so a zero rate cannot desynchronize two
  plans built from specs that differ only in rates.

Fault taxonomy (see the README recovery matrix):

- **transient transfer fault** — a leg transfer fails ``failures`` times
  before succeeding; each failed attempt costs the full leg time plus
  exponential backoff (:data:`BACKOFF_BASE_MS` doubling per attempt),
  priced as synchronous stall.
- **permanent transfer fault** — the retry budget (:data:`MAX_RETRIES`)
  is exhausted; the page's content is *lost* and the affected sequences
  must be healed by recompute-style replay.
- **latency spike** — a successful transfer takes
  :data:`LATENCY_SPIKE_FACTOR`× its modeled time (a congested link, an
  NVMe garbage-collection pause).
- **corruption** — the transfer completes but the payload is damaged in
  flight; detected by the demote/promote checksum pair and healed like a
  lost page.
- **slow step** — the whole scheduler quantum runs
  :data:`SLOW_STEP_FACTOR`× slower (clock skew, a noisy neighbor
  stealing the host).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Failed attempts after which a transfer's content is lost.
MAX_RETRIES = 3
#: Backoff after the first failed attempt; it doubles per attempt.
BACKOFF_BASE_MS = 0.05
#: Time multiplier of a spiked transfer.
LATENCY_SPIKE_FACTOR = 8.0
#: Time multiplier of a slow scheduler step.
SLOW_STEP_FACTOR = 4.0


@dataclass(frozen=True)
class FaultSpec:
    """Rates and severities of every injected fault category.

    All rates are per-event probabilities: ``transfer_fault_rate``,
    ``latency_spike_rate`` and ``corruption_rate`` per leg transfer,
    ``slow_step_rate`` per scheduler step.  The severities are the
    module constants.
    """

    seed: int = 0
    transfer_fault_rate: float = 0.0
    permanent_fraction: float = 0.0
    latency_spike_rate: float = 0.0
    corruption_rate: float = 0.0
    slow_step_rate: float = 0.0

    def __post_init__(self):
        for name in (
            "transfer_fault_rate",
            "permanent_fraction",
            "latency_spike_rate",
            "corruption_rate",
            "slow_step_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability, got {rate}")


@dataclass(frozen=True)
class TransferOutcome:
    """The plan's verdict on one leg transfer.

    ``failures`` failed attempts precede the success; ``lost`` means the
    retry budget is exhausted and the content never arrives.  ``spike``
    multiplies the successful attempt's transfer time.  ``corrupt`` marks
    the payload damaged in flight despite the transfer "succeeding".
    """

    failures: int = 0
    lost: bool = False
    spike: float = 1.0
    corrupt: bool = False


class FaultPlan:
    """Live fault oracle: seeded RNG streams drawn per transfer / per step."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        # Independent streams per category: transfer outcomes and step
        # skew never contend for the same variates.
        self._transfer_rng = np.random.default_rng([int(spec.seed), 0x7A])
        self._step_rng = np.random.default_rng([int(spec.seed), 0x57])

    # ------------------------------------------------------------- transfers

    def transfer(self) -> TransferOutcome:
        """Draw the outcome of one leg transfer (fixed variate budget)."""
        spec = self.spec
        u_fail, u_sev, u_spike, u_corrupt = self._transfer_rng.random(4)
        failures, lost = 0, False
        if u_fail < spec.transfer_fault_rate:
            if u_sev < spec.permanent_fraction:
                failures, lost = MAX_RETRIES, True
            else:
                # Rescale the severity draw over the transient range:
                # mostly one failed attempt, sometimes two.
                span = 1.0 - spec.permanent_fraction
                burst = (u_sev - spec.permanent_fraction) / span if span else 0.0
                failures = min(1 + (1 if burst > 0.75 else 0), MAX_RETRIES)
        spike = LATENCY_SPIKE_FACTOR if u_spike < spec.latency_spike_rate else 1.0
        corrupt = bool(u_corrupt < spec.corruption_rate) and not lost
        return TransferOutcome(failures=failures, lost=lost, spike=spike, corrupt=corrupt)

    def backoff_ms(self, attempt: int) -> float:
        """Exponential backoff charged after failed attempt ``attempt`` (0-based)."""
        return BACKOFF_BASE_MS * (2.0**attempt)

    # ----------------------------------------------------------------- steps

    def step_factor(self) -> float:
        """Slow-down multiplier for the next scheduler step (usually 1.0)."""
        u = self._step_rng.random()
        if u < self.spec.slow_step_rate:
            return SLOW_STEP_FACTOR
        return 1.0


def demo_fault_spec(seed: int) -> FaultSpec:
    """The committed chaos demo plan: every category enabled at rates that
    exercise retry, loss-heal, corruption-heal and slow steps on the small
    smoke traces (CI asserts >= 1 retry and >= 1 healed page on it)."""
    return FaultSpec(
        seed=seed,
        transfer_fault_rate=0.12,
        permanent_fraction=0.2,
        latency_spike_rate=0.08,
        corruption_rate=0.06,
        slow_step_rate=0.08,
    )
