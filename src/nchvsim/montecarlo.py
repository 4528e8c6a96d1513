"""Noisy coincidence sampling and correlation estimation.

The noise model keeps the fair-sampling structure of the optical setup:
interference contrast is reduced by a visibility factor, a background
fraction of uniformly random coincidences is mixed in, and detection is a
per-pair Bernoulli thinning that is independent of the analyzer outcomes.

Estimated correlations carry the multinomial standard error
``sigma = sqrt((1 - E**2) / N)`` where ``N`` counts the coincidences the
estimator actually consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EstimationError, ValidationError, is_finite
from .experiment import (
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    Outcome,
    PhaseSetting,
    joint_probability_closed_form,
    joint_probability_eventready_closed_form,
)


@dataclass(frozen=True)
class NoiseModel:
    """Visibility, detection efficiency and background fraction."""

    visibility: float = 1.0
    efficiency: float = 1.0
    background: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValidationError(f"visibility must be in [0, 1], got {self.visibility!r}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValidationError(f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if not 0.0 <= self.background < 1.0:
            raise ValidationError(f"background must be in [0, 1), got {self.background!r}")

    def effective_visibility(self) -> float:
        """Fringe contrast after both depolarization and background."""
        return (1.0 - self.background) * self.visibility


@dataclass(frozen=True)
class CoincidenceCounts:
    """Observed outcome histogram at one setting."""

    setting: PhaseSetting
    counts: dict[Outcome, int]
    trials: int
    detected: int

    def __post_init__(self):
        if self.trials <= 0:
            raise ValidationError(f"trials must be positive, got {self.trials!r}")
        for outcome, n in self.counts.items():
            if n < 0:
                raise ValidationError(f"negative count for outcome {outcome!r}")
        total = sum(self.counts.values())
        if total != self.detected:
            raise ValidationError(
                f"counts sum to {total} but detected is {self.detected}"
            )
        if self.detected > self.trials:
            raise ValidationError("detected events cannot exceed trials")

    def outcomes(self) -> tuple[Outcome, ...]:
        return TRIPLE_OUTCOMES if self.setting.phi_c is not None else PAIR_OUTCOMES


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation value with its standard error and sample size."""

    value: float
    sigma: float
    n: int
    setting: PhaseSetting

    def __post_init__(self):
        if not -1.0 <= self.value <= 1.0:
            raise ValidationError(f"estimate {self.value!r} outside [-1, 1]")
        if self.sigma < 0.0:
            raise ValidationError("sigma must be >= 0")
        if self.n <= 0:
            raise ValidationError("sample size must be positive")


def counting_sigma(value: float, n: int) -> float:
    """Standard error of a mean of n independent +-1 observations."""
    if n <= 0:
        raise ValidationError("sample size must be positive")
    return math.sqrt(max(0.0, 1.0 - value * value) / n)


def noisy_probability(outcome: Outcome, setting: PhaseSetting, noise: NoiseModel) -> float:
    """Outcome probability with visibility damping and background mixing.

    The ideal sinusoid is contracted toward the uniform distribution twice:
    ``p = (1 - bg) * (v * p_ideal + (1 - v)/k) + bg/k`` with k outcomes."""
    if setting.phi_c is not None:
        ideal = joint_probability_closed_form(outcome, setting)
        k = 8.0
    else:
        ideal = joint_probability_eventready_closed_form(outcome, setting)
        k = 4.0
    v = noise.visibility
    p = v * ideal + (1.0 - v) / k
    return (1.0 - noise.background) * p + noise.background / k


def sample_counts(
    setting: PhaseSetting, noise: NoiseModel, trials: int, seed: int
) -> CoincidenceCounts:
    """Simulate coincidence collection at one setting.

    Each emitted pair survives detection with probability ``efficiency``
    (fair sampling); each surviving event draws one uniform number, and the
    outcomes, in their fixed order, are counted by thresholds on those
    draws at the cumulative outcome probabilities.  Deterministic for a
    given seed."""
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials!r}")
    outcomes = TRIPLE_OUTCOMES if setting.phi_c is not None else PAIR_OUTCOMES
    # Cumulative sums of non-negative probabilities, added in np.cumsum's
    # order.  Every draw is below 1, so the top edge is never needed.
    edges = list(accumulate(noisy_probability(o, setting, noise) for o in outcomes))
    rng = np.random.default_rng(seed)
    detected = int(rng.binomial(trials, noise.efficiency))
    draws = rng.random(detected)
    below = [0] + [int(np.count_nonzero(draws < edge)) for edge in edges[:-1]] + [detected]
    counts = {o: hi - lo for o, lo, hi in zip(outcomes, below, below[1:])}
    return CoincidenceCounts(setting, counts, trials, detected)


def estimate_correlation_exp1(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Triple correlation from the four A=+1 coincidence channels only.

    The lower beam-splitter exit is unmonitored, so the estimate doubles the
    A=+1 relative frequencies under the A-marginal symmetry; algebraically
    that is the mean of B*C over the A=+1 subsample."""
    if counts.setting.phi_c is None:
        raise ValidationError("exp1 estimator needs triple-coincidence counts")
    used = 0
    weighted = 0
    for outcome, n in counts.counts.items():
        if outcome.a != +1:
            continue
        used += n
        weighted += outcome.b * outcome.c * n
    if used == 0:
        raise EstimationError("no A=+1 coincidences recorded; cannot estimate")
    value = weighted / used
    return CorrelationEstimate(value, counting_sigma(value, used), used, counts.setting)


def estimate_correlation_exp2(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Conditioned pair correlation using all four outcome channels."""
    if counts.setting.phi_c is not None:
        raise ValidationError("exp2 estimator needs pair-coincidence counts")
    used = sum(counts.counts.values())
    if used == 0:
        raise EstimationError("no coincidences recorded; cannot estimate")
    weighted = sum(o.a * o.b * n for o, n in counts.counts.items())
    value = weighted / used
    return CorrelationEstimate(value, counting_sigma(value, used), used, counts.setting)


def propagate_error(
    estimates: list[tuple[float, float]], signs: list[int]
) -> tuple[float, float]:
    """Signed sum of independent estimates with quadrature uncertainty."""
    if len(estimates) != len(signs):
        raise ValidationError("one sign per estimate required")
    if not estimates:
        raise ValidationError("at least one estimate required")
    for sign in signs:
        if sign not in (-1, +1):
            raise ValidationError(f"signs must be +1 or -1, got {sign!r}")
    for _, sigma in estimates:
        if not is_finite(sigma) or sigma < 0.0:
            raise ValidationError(f"sigmas must be finite and >= 0, got {sigma!r}")
    combined = math.fsum(s * v for s, (v, _) in zip(signs, estimates))
    sigma = math.sqrt(math.fsum(s * s for _, s in estimates))
    return combined, sigma
