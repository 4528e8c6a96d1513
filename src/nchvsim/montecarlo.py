"""Noisy coincidence sampling and correlation estimation.

The noise model keeps the fair-sampling structure of the optical setup:
interference contrast is reduced by a visibility factor, a background
fraction of uniformly random coincidences is mixed in, and detection is a
per-pair Bernoulli thinning that is independent of the analyzer outcomes.

Every function reads the number of analyzers k off the setting
(``PhaseSetting.analyzers``) and works on its 2**k outcomes.  The
estimator's correlation is the mean of the outcome product A*B(*C) over
the channels the experiment records, and it carries the standard error
``sigma = sqrt((1 - E**2) / N)`` of a mean of ``N`` +-1 observations,
where ``N`` counts the coincidences in those channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import EstimationError, ValidationError, _require_int, is_finite
from .experiment import OUTCOMES, PhaseSetting

# The outcome product A*B(*C) of each channel, in OUTCOMES order.
_PRODUCTS = {k: tuple(o.product() for o in outcomes) for k, outcomes in OUTCOMES.items()}

# Most trials sample_counts takes at one setting.  Its draws hold 8 bytes per
# detected event; at unit efficiency the ceiling is ~0.9 GB and ~1.2 s (see
# README, "Limits").
MAX_TRIALS = 10**8


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
    """Observed outcome histogram at one setting: ``counts[i]`` events of
    outcome ``OUTCOMES[setting.analyzers][i]``."""

    setting: PhaseSetting
    counts: tuple[int, ...]
    trials: int

    def __post_init__(self):
        _require_int("trials", self.trials)
        if self.trials <= 0:
            raise ValidationError(f"trials must be positive, got {self.trials!r}")
        n_outcomes = len(_PRODUCTS[self.setting.analyzers])
        if not isinstance(self.counts, tuple) or len(self.counts) != n_outcomes:
            raise ValidationError(
                f"counts at a setting of {self.setting.analyzers} analyzers must be a tuple "
                f"of {n_outcomes} counts in outcome order, got {self.counts!r}"
            )
        for n in self.counts:
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise ValidationError(f"counts must be non-negative integers, got {n!r}")
        if sum(self.counts) > self.trials:
            raise ValidationError("detected events cannot exceed trials")


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation value with its standard error and sample size."""

    value: float
    sigma: float
    n: int

    def __post_init__(self):
        if not -1.0 <= self.value <= 1.0:
            raise ValidationError(f"estimate {self.value!r} outside [-1, 1]")
        if not (is_finite(self.sigma) and self.sigma >= 0.0):
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        _require_int("sample size", self.n)
        if self.n <= 0:
            raise ValidationError("sample size must be positive")


def noisy_probabilities(setting: PhaseSetting, noise: NoiseModel) -> tuple[float, ...]:
    """Outcome probabilities in OUTCOMES order: the ideal sinusoid
    ``(1 + A*B(*C) * sin(phase sum))/k`` over k outcomes, contracted toward the
    uniform distribution twice, ``(1 - bg) * (v * p_ideal + (1 - v)/k) + bg/k``."""
    products = _PRODUCTS[setting.analyzers]
    k = len(products)
    s = math.sin(setting.phase_sum())
    v, bg = noise.visibility, noise.background
    return tuple((1.0 - bg) * (v * ((1.0 + p * s) / k) + (1.0 - v) / k) + bg / k
                 for p in products)


def sample_counts(
    setting: PhaseSetting, noise: NoiseModel, trials: int, seed: int
) -> CoincidenceCounts:
    """Simulate coincidence collection at one setting.

    A trial is one pair: an emitted pair at a three-analyzer setting, and a
    heralded pair (C = +1 fired at phi_c = 0) at an event-ready one, whose
    outcomes are drawn from the heralded distribution directly.  The herald
    fires for half of the emitted pairs, so ``trials=n`` there stands for
    about 2n emitted pairs.  Each pair survives detection with probability
    ``efficiency`` (fair sampling); each surviving event draws one uniform
    number, and the outcomes, in their fixed order, are counted by
    thresholds on those draws at the cumulative outcome probabilities.
    Deterministic for a given seed."""
    _require_int("trials", trials)
    if trials <= 0:
        raise ValidationError(f"trials must be positive, got {trials!r}")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS}, got {trials!r}")
    # Cumulative sums of non-negative probabilities, added in np.cumsum's
    # order.  Every draw is below 1, so the top edge is never needed.
    edges = list(accumulate(noisy_probabilities(setting, noise)))
    rng = np.random.default_rng(seed)
    detected = int(rng.binomial(trials, noise.efficiency))
    draws = rng.random(detected)
    below = [0] + [int(np.count_nonzero(draws < edge)) for edge in edges[:-1]] + [detected]
    counts = tuple(hi - lo for lo, hi in zip(below, below[1:]))
    return CoincidenceCounts(setting, counts, trials)


def estimate_correlation(counts: CoincidenceCounts) -> CorrelationEstimate:
    """Mean of the outcome product over the four recorded channels, the
    first four in outcome order: all four at a pair setting, the A=+1 half
    at a triple setting.  Raises EstimationError if they hold no event.

    At a triple setting the lower beam-splitter exit is unmonitored, so the
    estimate is the mean of B*C over the A=+1 subsample.  That is the A*B*C
    correlation of all events only under fair sampling of A's exits:
    E(BC | A=-1) = -E(BC | A=+1) at each setting.  A symmetric A marginal is
    not enough: an equal mixture of four NCHV assignments with P(A=+1) = 1/2
    at every setting gives a Mermin estimate of 4, though its value over all
    events is the classical bound 2."""
    analyzers = counts.setting.analyzers
    recorded = counts.counts[:4]
    used = sum(recorded)
    if used == 0:
        raise EstimationError("no A=+1 coincidences recorded; cannot estimate" if analyzers == 3
                              else "no coincidences recorded; cannot estimate")
    value = sum(p * n for p, n in zip(_PRODUCTS[analyzers], recorded)) / used
    return CorrelationEstimate(value, math.sqrt((1.0 - value * value) / used), used)
