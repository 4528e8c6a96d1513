"""Noisy coincidence sampling and correlation estimation.

The noise model keeps the fair-sampling structure of the optical setup:
interference contrast is reduced by a visibility factor, a background
fraction of uniformly random coincidences is mixed in, and detection is a
per-pair Bernoulli thinning that is independent of the analyzer outcomes.

Every function reads the number of analyzers k off the setting
(``PhaseSetting.analyzers``) and works on its 2**k outcomes.  Both
estimators follow one counting rule: the correlation is the mean of the
outcome product A*B(*C) over the channels the experiment records, and it
carries the standard error ``sigma = sqrt((1 - E**2) / N)`` of a mean of
``N`` +-1 observations, where ``N`` counts the coincidences in those
channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EstimationError, ValidationError, _require_int, is_finite
from .experiment import (
    OUTCOMES,
    Outcome,
    PhaseSetting,
    joint_probability_closed_form,
    joint_probability_eventready_closed_form,
)

_OUTCOME_SETS = {k: frozenset(outcomes) for k, outcomes in OUTCOMES.items()}


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
        _require_int("trials", self.trials)
        _require_int("detected", self.detected)
        if self.trials <= 0:
            raise ValidationError(f"trials must be positive, got {self.trials!r}")
        if not self.counts.keys() <= _OUTCOME_SETS[self.setting.analyzers]:
            raise ValidationError(
                f"counts at a setting of {self.setting.analyzers} analyzers must be keyed "
                f"by its outcomes, got {list(self.counts)!r}"
            )
        for outcome, n in self.counts.items():
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise ValidationError(
                    f"the count of outcome {outcome!r} must be a non-negative integer, got {n!r}"
                )
        total = sum(self.counts.values())
        if total != self.detected:
            raise ValidationError(
                f"counts sum to {total} but detected is {self.detected}"
            )
        if self.detected > self.trials:
            raise ValidationError("detected events cannot exceed trials")

    def outcomes(self) -> tuple[Outcome, ...]:
        return OUTCOMES[self.setting.analyzers]


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
    k = len(OUTCOMES[setting.analyzers])
    closed_form = (joint_probability_closed_form if k == 8
                   else joint_probability_eventready_closed_form)
    ideal = closed_form(outcome, setting)
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
    _require_int("trials", trials)
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials!r}")
    outcomes = OUTCOMES[setting.analyzers]
    # Cumulative sums of non-negative probabilities, added in np.cumsum's
    # order.  Every draw is below 1, so the top edge is never needed.
    edges = list(accumulate(noisy_probability(o, setting, noise) for o in outcomes))
    rng = np.random.default_rng(seed)
    detected = int(rng.binomial(trials, noise.efficiency))
    draws = rng.random(detected)
    below = [0] + [int(np.count_nonzero(draws < edge)) for edge in edges[:-1]] + [detected]
    counts = {o: hi - lo for o, lo, hi in zip(outcomes, below, below[1:])}
    return CoincidenceCounts(setting, counts, trials, detected)


def _mean_product(counts: CoincidenceCounts, a_values: tuple, empty: str) -> CorrelationEstimate:
    """Mean of the outcome product over the channels whose A is in
    ``a_values``; raises EstimationError(``empty``) if they hold no event."""
    used = 0
    weighted = 0
    for outcome, n in counts.counts.items():
        if outcome.a in a_values:
            used += n
            weighted += outcome.product() * n
    if used == 0:
        raise EstimationError(empty)
    value = weighted / used
    return CorrelationEstimate(value, counting_sigma(value, used), used, counts.setting)


def estimate_correlation_exp1(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Triple correlation from the four A=+1 coincidence channels only.

    The lower beam-splitter exit is unmonitored, so the estimate doubles the
    A=+1 relative frequencies under the A-marginal symmetry; algebraically
    that is the mean of B*C over the A=+1 subsample."""
    if counts.setting.analyzers != 3:
        raise ValidationError("exp1 estimator needs triple-coincidence counts")
    return _mean_product(counts, (+1,), "no A=+1 coincidences recorded; cannot estimate")


def estimate_correlation_exp2(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Conditioned pair correlation using all four outcome channels."""
    if counts.setting.analyzers != 2:
        raise ValidationError("exp2 estimator needs pair-coincidence counts")
    return _mean_product(counts, (+1, -1), "no coincidences recorded; cannot estimate")


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
    for value, sigma in estimates:
        if not is_finite(value):
            raise ValidationError(f"estimate values must be finite, got {value!r}")
        if not is_finite(sigma) or sigma < 0.0:
            raise ValidationError(f"sigmas must be finite and >= 0, got {sigma!r}")
    combined = math.fsum(s * v for s, (v, _) in zip(signs, estimates))
    sigma = math.sqrt(math.fsum(s * s for _, s in estimates))
    return combined, sigma
