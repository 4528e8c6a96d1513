import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchvsim.errors import EstimationError, ValidationError
from nchvsim.experiment import (
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    Outcome,
    PhaseSetting,
    joint_probability_closed_form,
)
from nchvsim.montecarlo import (
    CoincidenceCounts,
    NoiseModel,
    counting_sigma,
    estimate_correlation_exp1,
    estimate_correlation_exp2,
    noisy_probability,
    propagate_error,
    sample_counts,
)

HALF_PI = math.pi / 2.0


def make_counts(setting, mapping, trials=None):
    detected = sum(mapping.values())
    return CoincidenceCounts(setting, mapping, trials or detected, detected)


def test_noise_model_validation():
    NoiseModel(0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        NoiseModel(visibility=1.2)
    with pytest.raises(ValidationError):
        NoiseModel(efficiency=0.0)
    with pytest.raises(ValidationError):
        NoiseModel(background=1.0)


def test_noisy_probability_identity_case():
    setting = PhaseSetting(0.7, -0.3, 1.1)
    ideal = NoiseModel()
    for outcome in TRIPLE_OUTCOMES:
        assert noisy_probability(outcome, setting, ideal) == joint_probability_closed_form(
            outcome, setting
        )


def test_noisy_probability_zero_visibility_is_uniform():
    setting = PhaseSetting(0.7, -0.3, 1.1)
    noise = NoiseModel(visibility=0.0)
    for outcome in TRIPLE_OUTCOMES:
        assert noisy_probability(outcome, setting, noise) == pytest.approx(0.125, abs=1e-15)
    pair = PhaseSetting(0.7, -0.3)
    for outcome in PAIR_OUTCOMES:
        assert noisy_probability(outcome, pair, NoiseModel(visibility=0.0)) == pytest.approx(
            0.25, abs=1e-15
        )


def test_noisy_probability_contracts_fringe():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    noise = NoiseModel(visibility=0.885)
    assert noisy_probability(Outcome(+1, +1, +1), setting, noise) == pytest.approx(
        (1.0 + 0.885) / 8.0, abs=1e-15
    )
    assert noisy_probability(Outcome(+1, +1, -1), setting, noise) == pytest.approx(
        (1.0 - 0.885) / 8.0, abs=1e-15
    )


def test_noisy_probability_background_mix():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    noise = NoiseModel(visibility=1.0, background=0.2)
    # (1 - bg) * 1/4 + bg/8 for the bright outcome
    assert noisy_probability(Outcome(+1, +1, +1), setting, noise) == pytest.approx(
        0.8 * 0.25 + 0.2 / 8.0, abs=1e-15
    )
    total = sum(noisy_probability(o, setting, noise) for o in TRIPLE_OUTCOMES)
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_sample_counts_bright_fringe_exhausts_probability():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    counts = sample_counts(setting, NoiseModel(), trials=100000, seed=2)
    assert counts.detected == 100000
    dark = sum(n for o, n in counts.counts.items() if o.product() == -1)
    assert dark == 0


def test_sample_counts_determinism():
    setting = PhaseSetting(0.3, 0.1, -0.4)
    noise = NoiseModel(visibility=0.9, efficiency=0.4, background=0.05)
    first = sample_counts(setting, noise, trials=20000, seed=99)
    second = sample_counts(setting, noise, trials=20000, seed=99)
    assert first.counts == second.counts
    assert first.detected == second.detected
    different = sample_counts(setting, noise, trials=20000, seed=100)
    assert different.counts != first.counts


def test_sample_counts_efficiency_thinning():
    setting = PhaseSetting(0.3, 0.1, -0.4)
    counts = sample_counts(setting, NoiseModel(efficiency=0.08), trials=1_000_000, seed=5)
    assert counts.detected <= counts.trials
    assert sum(counts.counts.values()) == counts.detected
    # binomial mean 80000, sd ~271; allow 3 sigma
    assert abs(counts.detected - 80000) <= 814


def test_sample_counts_validation():
    for trials in (0, 2.5, 3.0, True, "10"):
        with pytest.raises(ValidationError):
            sample_counts(PhaseSetting(0.0, 0.0, 0.0), NoiseModel(), trials=trials, seed=1)


def test_counts_consistency_validation():
    setting = PhaseSetting(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        CoincidenceCounts(setting, {Outcome(+1, +1, +1): 3}, trials=10, detected=2)
    with pytest.raises(ValidationError):
        CoincidenceCounts(setting, {Outcome(+1, +1, +1): 3}, trials=2, detected=3)


@pytest.mark.parametrize(
    "counts, trials, detected",
    [
        ({Outcome(1, 1): 2.5, Outcome(-1, 1): 0.5}, 3, 3.0),  # fractional counts
        ({Outcome(1, 1): 2, Outcome(-1, 1): 1}, 3, 3.0),  # float detected
        ({Outcome(1, 1): 2, Outcome(-1, 1): 1}, 2.5, 3),  # fractional trials
        ({Outcome(1, 1): 2, Outcome(-1, 1): 1}, 3.0, 3),  # float trials
        ({Outcome(1, 1): 1}, True, 1),  # bools are not counts
        ({Outcome(1, 1): 1}, 1, True),
        ({Outcome(1, 1): True}, 1, 1),
        ({Outcome(1, 1): 2, Outcome(-1, 1): -1}, 1, 1),  # a negative count
    ],
)
def test_counts_must_be_integers(counts, trials, detected):
    with pytest.raises(ValidationError, match="integer"):
        CoincidenceCounts(PhaseSetting(0.0, 0.0), counts, trials, detected)


@pytest.mark.parametrize("setting, outcome", [
    (PhaseSetting(0.0, 0.0, 0.0), Outcome(+1, +1)),
    (PhaseSetting(0.0, 0.0), Outcome(+1, +1, -1)),
])
def test_counts_of_the_other_configuration_are_rejected(setting, outcome):
    # the exp1 estimator used to end in a TypeError on the first, and the
    # exp2 estimator to return +1 for an outcome whose product is -1
    with pytest.raises(ValidationError, match="keyed by its outcomes"):
        make_counts(setting, {outcome: 5})


def test_exp1_estimator_uses_only_plus_channels():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    mapping = {
        Outcome(+1, +1, +1): 400,
        Outcome(+1, -1, -1): 100,
        Outcome(+1, +1, -1): 0,
        Outcome(+1, -1, +1): 0,
        # A=-1 events must not move the estimate
        Outcome(-1, +1, +1): 9000,
    }
    est = estimate_correlation_exp1(make_counts(setting, mapping))
    assert est.value == pytest.approx(1.0, abs=0.0)
    assert est.n == 500
    assert est.sigma == 0.0


def test_exp1_estimator_balanced_counts_give_zero():
    setting = PhaseSetting(0.0, 0.0, 0.0)
    mapping = {Outcome(+1, b, c): 250 for b in (1, -1) for c in (1, -1)}
    est = estimate_correlation_exp1(make_counts(setting, mapping))
    assert est.value == 0.0
    assert est.sigma == pytest.approx(math.sqrt(1.0 / 1000.0), abs=1e-15)


def test_exp1_estimator_requires_events():
    setting = PhaseSetting(0.0, 0.0, 0.0)
    mapping = {Outcome(-1, +1, +1): 50}
    with pytest.raises(EstimationError):
        estimate_correlation_exp1(make_counts(setting, mapping))
    with pytest.raises(ValidationError):
        estimate_correlation_exp1(
            make_counts(PhaseSetting(0.0, 0.0), {Outcome(+1, +1): 5})
        )


def test_exp2_estimator_uses_all_channels():
    setting = PhaseSetting(HALF_PI, 0.0)
    mapping = {
        Outcome(+1, +1): 700,
        Outcome(-1, -1): 200,
        Outcome(+1, -1): 50,
        Outcome(-1, +1): 50,
    }
    est = estimate_correlation_exp2(make_counts(setting, mapping))
    assert est.value == pytest.approx((700 + 200 - 100) / 1000.0, abs=1e-15)
    assert est.n == 1000
    with pytest.raises(EstimationError):
        estimate_correlation_exp2(make_counts(setting, {Outcome(+1, +1): 0}, trials=10))


def test_estimator_consistency_large_sample():
    rng = np.random.default_rng(77)
    for visibility in (1.0, 0.885, 0.6):
        noise = NoiseModel(visibility=visibility)
        for _ in range(4):
            phases = rng.uniform(-math.pi, math.pi, size=3)
            setting = PhaseSetting(*phases)
            counts = sample_counts(setting, noise, trials=1_000_000, seed=int(rng.integers(1 << 30)))
            est = estimate_correlation_exp1(counts)
            expected = visibility * math.sin(setting.phase_sum())
            margin = 4.0 * counting_sigma(expected, est.n)
            assert abs(est.value - expected) <= margin

            pair = PhaseSetting(phases[0], phases[1])
            counts2 = sample_counts(pair, noise, trials=200_000, seed=int(rng.integers(1 << 30)))
            est2 = estimate_correlation_exp2(counts2)
            expected2 = visibility * math.sin(pair.phase_sum())
            margin2 = 4.0 * counting_sigma(expected2, est2.n)
            assert abs(est2.value - expected2) <= margin2


def test_fair_sampling_neutrality():
    # equal detected-count budgets at very different efficiencies must agree
    noise_full = NoiseModel(visibility=0.885, efficiency=1.0)
    noise_thin = NoiseModel(visibility=0.885, efficiency=0.08)
    setting = PhaseSetting(0.46 * math.pi, 0.0, 0.0)
    full = estimate_correlation_exp1(sample_counts(setting, noise_full, 10_000, seed=11))
    thin = estimate_correlation_exp1(
        sample_counts(setting, noise_thin, 125_000, seed=12)
    )
    margin = 4.0 * math.hypot(full.sigma, thin.sigma)
    assert abs(full.value - thin.value) <= margin


def test_error_calibration_against_declared_sigma():
    noise = NoiseModel(visibility=0.885)
    setting = PhaseSetting(0.46 * math.pi, 0.0, 0.0)
    values = []
    sigmas = []
    for seed in range(100):
        est = estimate_correlation_exp1(sample_counts(setting, noise, 4000, seed=seed))
        values.append(est.value)
        sigmas.append(est.sigma)
    spread = float(np.std(values, ddof=1))
    declared = float(np.mean(sigmas))
    assert spread == pytest.approx(declared, rel=0.20)


def test_propagate_error_quadrature():
    value, sigma = propagate_error(
        [(0.885, 0.005), (0.897, 0.005), (0.884, 0.005)], [1, 1, 1]
    )
    assert value == pytest.approx(2.666, abs=1e-12)
    assert sigma == pytest.approx(0.005 * math.sqrt(3.0), abs=1e-15)
    value, sigma = propagate_error(
        [(0.586, 0.008), (0.705, 0.008), (0.714, 0.008), (-0.590, 0.008)],
        [1, 1, 1, -1],
    )
    assert value == pytest.approx(2.595, abs=1e-12)
    assert sigma == pytest.approx(0.016, abs=1e-15)


def test_propagate_error_validation():
    with pytest.raises(ValidationError):
        propagate_error([(0.5, 0.01)], [1, -1])
    with pytest.raises(ValidationError):
        propagate_error([], [])
    with pytest.raises(ValidationError):
        propagate_error([(0.5, 0.01)], [2])
    with pytest.raises(ValidationError):
        propagate_error([(0.5, -0.01)], [1])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_propagate_error_rejects_unusable_values(value):
    with pytest.raises(ValidationError, match="estimate values must be finite"):
        propagate_error([(value, 0.1)], [1])


def test_counting_sigma_formula():
    assert counting_sigma(0.0, 100) == pytest.approx(0.1, abs=1e-15)
    assert counting_sigma(1.0, 100) == 0.0
    assert counting_sigma(0.885, 5000) == pytest.approx(
        math.sqrt((1.0 - 0.885**2) / 5000.0), abs=1e-15
    )


def _binary_search_counts(setting, noise, trials, seed):
    """Reference sampler: one searchsorted index per draw, then a bincount
    over the outcome order, on the same random stream."""
    outcomes = TRIPLE_OUTCOMES if setting.phi_c is not None else PAIR_OUTCOMES
    edges = np.cumsum([noisy_probability(o, setting, noise) for o in outcomes])
    edges[-1] = 1.0
    rng = np.random.default_rng(seed)
    detected = int(rng.binomial(trials, noise.efficiency))
    indices = np.searchsorted(edges, rng.random(detected), side="right")
    histogram = np.bincount(indices, minlength=len(outcomes))
    return [int(n) for n in histogram], detected


_PHASES = st.one_of(
    st.integers(-8, 8).map(lambda k: k * HALF_PI),
    st.floats(-4.0 * math.pi, 4.0 * math.pi),
)
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    phases=st.tuples(_PHASES, _PHASES, _PHASES),
    triple=st.booleans(),
    visibility=_UNIT,
    background=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
    efficiency=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    trials=st.one_of(st.integers(1, 50), st.integers(1, 200_000)),
    seed=st.integers(0, 2**128),
)
def test_sample_counts_equals_binary_search_route(
    phases, triple, visibility, background, efficiency, trials, seed
):
    setting = PhaseSetting(*phases) if triple else PhaseSetting(*phases[:2])
    noise = NoiseModel(visibility, efficiency, background)
    counts = sample_counts(setting, noise, trials, seed)
    histogram, detected = _binary_search_counts(setting, noise, trials, seed)
    assert [counts.counts[o] for o in counts.outcomes()] == histogram
    assert counts.detected == detected
    assert sum(counts.counts.values()) == counts.detected
    estimator = estimate_correlation_exp1 if triple else estimate_correlation_exp2
    try:
        estimate = estimator(counts)
    except EstimationError:
        return  # no usable coincidences at this setting
    assert -1.0 <= estimate.value <= 1.0


def test_sample_counts_peak_memory_stays_below_ten_bytes_per_trial():
    # the uniform draws (8 B each) and one boolean mask (1 B each)
    setting = PhaseSetting(0.3, 0.1, -0.4)
    trials = 100_000
    sample_counts(setting, NoiseModel(), trials, seed=1)
    tracemalloc.start()
    try:
        sample_counts(setting, NoiseModel(), trials, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * trials
