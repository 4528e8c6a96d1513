import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchvsim.errors import EstimationError, ValidationError
from nchvsim.experiment import (
    OUTCOMES,
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    Outcome,
    PhaseSetting,
    joint_probability_closed_form,
    joint_probability_eventready_closed_form,
)
from nchvsim.montecarlo import (
    MAX_TRIALS,
    CoincidenceCounts,
    CorrelationEstimate,
    NoiseModel,
    estimate_correlation,
    noisy_probabilities,
    sample_counts,
)
from nchvsim.nchv import PhaseGrid, classical_bound, expression_value, mermin_expression

HALF_PI = math.pi / 2.0


def make_counts(setting, mapping, trials=None):
    """Counts from an {outcome: n} mapping, in the outcome order of the
    configuration the mapping's outcomes belong to."""
    outcomes = PAIR_OUTCOMES if next(iter(mapping)).c is None else TRIPLE_OUTCOMES
    counts = tuple(mapping.get(o, 0) for o in outcomes)
    return CoincidenceCounts(setting, counts, trials or sum(counts))


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
    probabilities = noisy_probabilities(setting, NoiseModel())
    for outcome, p in zip(TRIPLE_OUTCOMES, probabilities):
        assert p == joint_probability_closed_form(outcome, setting)


def test_noisy_probability_zero_visibility_is_uniform():
    setting = PhaseSetting(0.7, -0.3, 1.1)
    for p in noisy_probabilities(setting, NoiseModel(visibility=0.0)):
        assert p == pytest.approx(0.125, abs=1e-15)
    pair = PhaseSetting(0.7, -0.3)
    for p in noisy_probabilities(pair, NoiseModel(visibility=0.0)):
        assert p == pytest.approx(0.25, abs=1e-15)


def test_noisy_probability_contracts_fringe():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    probabilities = noisy_probabilities(setting, NoiseModel(visibility=0.885))
    assert probabilities[TRIPLE_OUTCOMES.index(Outcome(+1, +1, +1))] == pytest.approx(
        (1.0 + 0.885) / 8.0, abs=1e-15
    )
    assert probabilities[TRIPLE_OUTCOMES.index(Outcome(+1, +1, -1))] == pytest.approx(
        (1.0 - 0.885) / 8.0, abs=1e-15
    )


def test_noisy_probability_background_mix():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    probabilities = noisy_probabilities(setting, NoiseModel(visibility=1.0, background=0.2))
    # (1 - bg) * 1/4 + bg/8 for the bright outcome
    assert probabilities[TRIPLE_OUTCOMES.index(Outcome(+1, +1, +1))] == pytest.approx(
        0.8 * 0.25 + 0.2 / 8.0, abs=1e-15
    )
    assert math.isclose(sum(probabilities), 1.0, abs_tol=1e-12)


def test_sample_counts_bright_fringe_exhausts_probability():
    setting = PhaseSetting(HALF_PI, 0.0, 0.0)
    counts = sample_counts(setting, NoiseModel(), trials=100000, seed=2)
    assert sum(counts.counts) == 100000
    dark = sum(n for o, n in zip(TRIPLE_OUTCOMES, counts.counts) if o.product() == -1)
    assert dark == 0


def test_sample_counts_determinism():
    setting = PhaseSetting(0.3, 0.1, -0.4)
    noise = NoiseModel(visibility=0.9, efficiency=0.4, background=0.05)
    first = sample_counts(setting, noise, trials=20000, seed=99)
    second = sample_counts(setting, noise, trials=20000, seed=99)
    assert first.counts == second.counts
    different = sample_counts(setting, noise, trials=20000, seed=100)
    assert different.counts != first.counts


def test_sample_counts_efficiency_thinning():
    setting = PhaseSetting(0.3, 0.1, -0.4)
    counts = sample_counts(setting, NoiseModel(efficiency=0.08), trials=1_000_000, seed=5)
    assert sum(counts.counts) <= counts.trials
    # binomial mean 80000, sd ~271; allow 3 sigma
    assert abs(sum(counts.counts) - 80000) <= 814


def test_sample_counts_validation():
    for trials in (0, 2.5, 3.0, True, "10", MAX_TRIALS + 1, 10**31):
        with pytest.raises(ValidationError):
            sample_counts(PhaseSetting(0.0, 0.0, 0.0), NoiseModel(), trials=trials, seed=1)


def test_counts_consistency_validation():
    assert sum(make_counts(PhaseSetting(0.0, 0.0, 0.0), {Outcome(+1, +1, -1): 3}).counts) == 3
    with pytest.raises(ValidationError, match="cannot exceed trials"):
        CoincidenceCounts(PhaseSetting(0.0, 0.0, 0.0), (3, 0, 0, 0, 0, 0, 0, 0), trials=2)
    with pytest.raises(ValidationError, match="trials must be positive"):
        CoincidenceCounts(PhaseSetting(0.0, 0.0), (0, 0, 0, 0), 0)


# The ids are the ones these cases had while the constructor also took a
# ``detected`` argument.
@pytest.mark.parametrize(
    "counts, trials",
    [
        pytest.param((2.5, 0, 0.5, 0), 3, id="counts0-3-3.0"),  # fractional counts
        pytest.param((2, 0, 1, 0), 2.5, id="counts2-2.5-3"),  # fractional trials
        pytest.param((2, 0, 1, 0), 3.0, id="counts3-3.0-3"),  # float trials
        pytest.param((1, 0, 0, 0), True, id="counts4-True-1"),  # bools are not counts
        pytest.param((True, 0, 0, 0), 1, id="counts6-1-1"),
        pytest.param((2, 0, -1, 0), 1, id="counts7-1-1"),  # a negative count
    ],
)
def test_counts_must_be_integers(counts, trials):
    with pytest.raises(ValidationError, match="integer"):
        CoincidenceCounts(PhaseSetting(0.0, 0.0), counts, trials)


@pytest.mark.parametrize("setting, counts", [
    pytest.param(PhaseSetting(0.0, 0.0, 0.0), (1, 0, 0, 0), id="4-tuple-at-a-triple-setting"),
    pytest.param(PhaseSetting(0.0, 0.0), (1, 0, 0, 0, 0, 0, 0, 0), id="8-tuple-at-a-pair-setting"),
    pytest.param(PhaseSetting(0.0, 0.0), [1, 0, 0, 0], id="list"),
])
def test_counts_must_be_a_tuple_with_one_entry_per_outcome(setting, counts):
    with pytest.raises(ValidationError, match="must be a tuple of"):
        CoincidenceCounts(setting, counts, 10)


@pytest.mark.parametrize("setting, outcome", [
    (PhaseSetting(0.0, 0.0, 0.0), Outcome(+1, +1)),
    (PhaseSetting(0.0, 0.0), Outcome(+1, +1, -1)),
])
def test_counts_of_the_other_configuration_are_rejected(setting, outcome):
    # the exp1 estimator used to end in a TypeError on the first, and the
    # exp2 estimator to return +1 for an outcome whose product is -1
    with pytest.raises(ValidationError, match="must be a tuple of"):
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
    est = estimate_correlation(make_counts(setting, mapping))
    assert est.value == pytest.approx(1.0, abs=0.0)
    assert est.n == 500
    assert est.sigma == 0.0


def test_exp1_estimator_balanced_counts_give_zero():
    setting = PhaseSetting(0.0, 0.0, 0.0)
    mapping = {Outcome(+1, b, c): 250 for b in (1, -1) for c in (1, -1)}
    est = estimate_correlation(make_counts(setting, mapping))
    assert est.value == 0.0
    assert est.sigma == pytest.approx(math.sqrt(1.0 / 1000.0), abs=1e-15)


def test_exp1_estimator_requires_events():
    setting = PhaseSetting(0.0, 0.0, 0.0)
    mapping = {Outcome(-1, +1, +1): 50}
    with pytest.raises(EstimationError):
        estimate_correlation(make_counts(setting, mapping))


# Four deterministic NCHV assignments, each written (a0, a1, b0, b1, c0, c1)
# over the Mermin grid: index 0 at phase 0, index 1 at pi/2.
_POST_SELECTING_MODEL = (
    (+1, -1, +1, +1, -1, +1),
    (-1, +1, +1, +1, -1, -1),
    (+1, -1, -1, -1, +1, -1),
    (-1, +1, -1, -1, +1, +1),
)


def test_exp1_estimator_needs_fair_sampling_of_the_a_exits():
    """An equal mixture of the four assignments has every single-analyzer
    marginal 0 and P(A = +1) = 1/2 at both A phases, and its Mermin value
    over all events is the classical bound, 2.  Yet the A = +1 events alone
    give 4: the estimator assumes E(BC | A = -1) = -E(BC | A = +1) at each
    setting, which this model breaks."""
    assert all(sum(column) == 0 for column in zip(*_POST_SELECTING_MODEL))
    estimated, true = [], []
    for term in mermin_expression():
        setting = PhaseSetting(term.a_index * HALF_PI, term.b_index * HALF_PI,
                               term.c_index * HALF_PI)
        events = [Outcome(v[term.a_index], v[2 + term.b_index], v[4 + term.c_index])
                  for v in _POST_SELECTING_MODEL]
        assert sorted(o.a for o in events) == [-1, -1, +1, +1]
        counts = make_counts(setting, {o: 25 * events.count(o) for o in events})
        estimated.append(estimate_correlation(counts).value)
        true.append(sum(o.product() for o in events) / len(events))
    grid = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI), (0.0, HALF_PI))
    assert expression_value(mermin_expression(), true) == 2.0
    assert classical_bound(mermin_expression(), grid) == 2.0
    assert expression_value(mermin_expression(), estimated) == 4.0


def test_exp2_estimator_uses_all_channels():
    setting = PhaseSetting(HALF_PI, 0.0)
    mapping = {
        Outcome(+1, +1): 700,
        Outcome(-1, -1): 200,
        Outcome(+1, -1): 50,
        Outcome(-1, +1): 50,
    }
    est = estimate_correlation(make_counts(setting, mapping))
    assert est.value == pytest.approx((700 + 200 - 100) / 1000.0, abs=1e-15)
    assert est.n == 1000
    with pytest.raises(EstimationError):
        estimate_correlation(make_counts(setting, {Outcome(+1, +1): 0}, trials=10))


def test_estimator_consistency_large_sample():
    rng = np.random.default_rng(77)
    for visibility in (1.0, 0.885, 0.6):
        noise = NoiseModel(visibility=visibility)
        for _ in range(4):
            phases = rng.uniform(-math.pi, math.pi, size=3)
            setting = PhaseSetting(*phases)
            counts = sample_counts(setting, noise, trials=1_000_000, seed=int(rng.integers(1 << 30)))
            est = estimate_correlation(counts)
            expected = visibility * math.sin(setting.phase_sum())
            margin = 4.0 * math.sqrt((1.0 - expected * expected) / est.n)
            assert abs(est.value - expected) <= margin

            pair = PhaseSetting(phases[0], phases[1])
            counts2 = sample_counts(pair, noise, trials=200_000, seed=int(rng.integers(1 << 30)))
            est2 = estimate_correlation(counts2)
            expected2 = visibility * math.sin(pair.phase_sum())
            margin2 = 4.0 * math.sqrt((1.0 - expected2 * expected2) / est2.n)
            assert abs(est2.value - expected2) <= margin2


def test_fair_sampling_neutrality():
    # equal detected-count budgets at very different efficiencies must agree
    noise_full = NoiseModel(visibility=0.885, efficiency=1.0)
    noise_thin = NoiseModel(visibility=0.885, efficiency=0.08)
    setting = PhaseSetting(0.46 * math.pi, 0.0, 0.0)
    full = estimate_correlation(sample_counts(setting, noise_full, 10_000, seed=11))
    thin = estimate_correlation(
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
        est = estimate_correlation(sample_counts(setting, noise, 4000, seed=seed))
        values.append(est.value)
        sigmas.append(est.sigma)
    spread = float(np.std(values, ddof=1))
    declared = float(np.mean(sigmas))
    assert spread == pytest.approx(declared, rel=0.20)


# The ids are the ones these cases had while a second function that
# computed sigma from a value and a sample size was tested here too.
@pytest.mark.parametrize(
    "args",
    [
        pytest.param((0.5, math.nan, 10), id="CorrelationEstimate-args0"),
        pytest.param((0.5, math.inf, 10), id="CorrelationEstimate-args1"),
        pytest.param((0.5, 0.1, 2.5), id="CorrelationEstimate-args2"),
        pytest.param((0.5, 0.1, True), id="CorrelationEstimate-args3"),
        pytest.param((1.5, 0.1, 10), id="CorrelationEstimate-args7"),
        pytest.param((0.5, 0.1, 0), id="CorrelationEstimate-args8"),
    ],
)
def test_degenerate_estimates_are_rejected(args):
    with pytest.raises(ValidationError):
        CorrelationEstimate(*args)


def test_counting_sigma_formula():
    """The estimate's sigma is sqrt((1 - E**2) / n), the standard error of
    a mean of n +-1 observations."""
    pair = PhaseSetting(0.0, 0.0)
    balanced = estimate_correlation(make_counts(pair, {Outcome(+1, +1): 50, Outcome(+1, -1): 50}))
    assert (balanced.value, balanced.n) == (0.0, 100)
    assert balanced.sigma == pytest.approx(0.1, abs=1e-15)
    assert estimate_correlation(make_counts(pair, {Outcome(-1, +1): 100})).sigma == 0.0
    mostly = estimate_correlation(
        make_counts(pair, {Outcome(+1, +1): 1885, Outcome(+1, -1): 115}))
    assert (mostly.value, mostly.n) == (0.885, 2000)
    assert mostly.sigma == pytest.approx(math.sqrt((1.0 - 0.885**2) / 2000.0), abs=1e-15)


def _closed_form_noisy_probability(outcome, setting, noise):
    """Reference noisy probability: the per-outcome closed form, damped by
    the visibility and mixed with the background, one outcome at a time."""
    k = len(OUTCOMES[setting.analyzers])
    closed_form = (joint_probability_closed_form if k == 8
                   else joint_probability_eventready_closed_form)
    p = noise.visibility * closed_form(outcome, setting) + (1.0 - noise.visibility) / k
    return (1.0 - noise.background) * p + noise.background / k


def _binary_search_counts(setting, noise, trials, seed):
    """Reference sampler: one searchsorted index per draw, then a bincount
    over the outcome order, on the same random stream."""
    outcomes = TRIPLE_OUTCOMES if setting.phi_c is not None else PAIR_OUTCOMES
    edges = np.cumsum([_closed_form_noisy_probability(o, setting, noise) for o in outcomes])
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
# NoiseModel refuses a background of 1, so the top edge is the float below it.
_BACKGROUND = st.one_of(st.sampled_from([0.0, math.nextafter(1.0, 0.0)]),
                        st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(phases=st.tuples(_PHASES, _PHASES, _PHASES), triple=st.booleans(),
       visibility=_UNIT, background=_BACKGROUND)
def test_noisy_probabilities_equal_the_closed_form_route_bit_for_bit(
    phases, triple, visibility, background
):
    setting = PhaseSetting(*phases) if triple else PhaseSetting(*phases[:2])
    noise = NoiseModel(visibility=visibility, background=background)
    probabilities = noisy_probabilities(setting, noise)
    outcomes = OUTCOMES[setting.analyzers]
    assert len(probabilities) == len(outcomes)
    for outcome, p in zip(outcomes, probabilities):
        assert p == _closed_form_noisy_probability(outcome, setting, noise)
        assert noisy_probabilities(setting, noise)[outcomes.index(outcome)] == p


def _reference_estimate(counts, a_values):
    """Reference estimator: the mean of the outcome product over the
    channels whose A is in ``a_values``, one outcome at a time."""
    used = weighted = 0
    for outcome, n in zip(OUTCOMES[counts.setting.analyzers], counts.counts):
        if outcome.a in a_values:
            used += n
            weighted += outcome.product() * n
    if used == 0:
        return None
    value = weighted / used
    return value.hex(), math.sqrt((1.0 - value * value) / used).hex(), used


_COUNT = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10**12))


@settings(max_examples=300, deadline=None)
@given(triple=st.booleans(), counts=st.tuples(*[_COUNT] * 8))
def test_estimators_equal_the_outcome_loop_bit_for_bit(triple, counts):
    setting = PhaseSetting(0.1, 0.2, 0.3) if triple else PhaseSetting(0.1, 0.2)
    counts = CoincidenceCounts(setting, counts if triple else counts[:4], 10**13)
    expected = _reference_estimate(counts, (+1,) if triple else (+1, -1))
    if expected is None:
        with pytest.raises(EstimationError):
            estimate_correlation(counts)
        return
    estimate = estimate_correlation(counts)
    assert (estimate.value.hex(), estimate.sigma.hex(), estimate.n) == expected


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
    assert list(counts.counts) == histogram
    assert sum(counts.counts) == detected
    try:
        estimate = estimate_correlation(counts)
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
