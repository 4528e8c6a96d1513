"""Property tests of the per-setting projection table that every quantum
probability and correlation in ``nchvsim.experiment`` is read from."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from einsum_route import bras, einsum_table
from nchvsim import experiment
from nchvsim.experiment import (
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    PhaseSetting,
    _setting_table,
    correlation_qm2,
    correlation_qm3,
    joint_probability,
    joint_probability_closed_form,
    joint_probability_eventready,
    joint_probability_eventready_closed_form,
)
from nchvsim.nchv import ExpressionTerm, expression_value
from nchvsim.reports import TESTS, InequalityTest

FOUR_PI = 4.0 * math.pi


@st.composite
def phase_tables(draw):
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 64))
    phase = st.floats(-FOUR_PI, FOUR_PI, allow_nan=False, allow_infinity=False)
    return k, np.array(draw(st.lists(st.lists(phase, min_size=k, max_size=k),
                                     min_size=n, max_size=n)))


def _tables(k, phases):
    """Each setting's probabilities, one row per setting."""
    return np.array([_setting_table(k, tuple(row)).probabilities for row in phases.tolist()])


def _correlation(setting):
    """The projected correlation of one setting of either configuration."""
    return (correlation_qm3 if setting.analyzers == 3 else correlation_qm2)(setting)


@settings(max_examples=60, deadline=None)
@given(phase_tables())
def test_table_matches_scalar_wrappers_and_closed_forms(case):
    k, phases = case
    setting_list = [PhaseSetting(*row) for row in phases.tolist()]
    if k == 3:
        outcomes, projected, closed, correlation = (
            TRIPLE_OUTCOMES, joint_probability, joint_probability_closed_form,
            correlation_qm3)
    else:
        outcomes, projected, closed, correlation = (
            PAIR_OUTCOMES, joint_probability_eventready,
            joint_probability_eventready_closed_form, correlation_qm2)
    for row, setting in zip(phases.tolist(), setting_list):
        table = _setting_table(k, tuple(row))
        assert len(table.probabilities) == 2**k
        for p, outcome in zip(table.probabilities, outcomes):
            assert p == projected(outcome, setting)
            assert abs(p - closed(outcome, setting)) <= 1e-12
        e = correlation(setting)
        assert e == table.correlation
        assert abs(e - math.sin(setting.phase_sum())) <= 1e-12
        assert type(e) is float


@settings(max_examples=200, deadline=None)
@given(phase_tables())
def test_table_rows_are_distributions_with_uniform_marginals(case):
    k, phases = case
    table = _tables(k, phases)
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12
    by_analyzer = table.reshape((len(phases),) + (2,) * k)
    for axis in range(1, k + 1):
        others = tuple(a for a in range(1, k + 1) if a != axis)
        assert np.max(np.abs(by_analyzer.sum(axis=others) - 0.5)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from((2, 3)),
    n=st.integers(1, 50),
    data=st.data(),
)
def test_precontracted_table_matches_the_einsum_over_bras(k, n, data):
    phase = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-FOUR_PI, FOUR_PI, allow_nan=False),
        st.sampled_from((0.0, -0.0, 1e6, -1e6)),
    )
    phases = np.array(data.draw(st.lists(st.lists(phase, min_size=k, max_size=k),
                                         min_size=n, max_size=n)))
    assert np.max(np.abs(_tables(k, phases) - einsum_table(k, phases))) <= 1e-15


def _kets_by_formula(k, phase, sign):
    """Each analyzer's eigenstate of eigenvalue ``sign``, written out in the
    basis order of its axis of the state."""
    phased = sign * cmath.exp(1j * phase) / math.sqrt(2.0)
    fixed = 1.0 / math.sqrt(2.0)
    if k == 3:
        return (
            (phased, 1j * fixed),  # A = (i|d> + s e^{i phi}|u>)/sqrt2 over (u, d)
            (fixed, phased),  # B = (|H> + s e^{i phi}|V>)/sqrt2 over (H, V)
            (phased, fixed),  # C = (|V> + s e^{i phi}|H>)/sqrt2 over (H, V)
        )
    return (
        (1j * fixed, phased),  # A = (i|a> + s e^{i phi}|b>)/sqrt2 over (a, b)
        (fixed, phased),  # B = (|H> + s e^{i phi}|V>)/sqrt2 over (H, V)
    )


@settings(max_examples=50, deadline=None)
@given(phase_tables())
def test_table_bras_are_the_labelled_eigenstates(case):
    k, phases = case
    kets = bras(k, phases).conj()
    for n, row in enumerate(phases):
        for j, phase in enumerate(row):
            for s, sign in enumerate((+1, -1)):
                expected = np.array(_kets_by_formula(k, float(phase), sign)[j])
                assert np.max(np.abs(kets[n, j, s] - expected)) <= 1e-15


# Phases that compare equal but differ (signed zeros, integers and their
# floats) or whose sines are exact (multiples of pi/4).
_phases = st.one_of(
    st.floats(-FOUR_PI, FOUR_PI, allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0)),
    st.integers(-20, 20),
    st.integers(-16, 16).map(lambda k: k * math.pi / 4.0),
)
_per_setting = st.one_of(
    st.tuples(_phases, _phases, _phases), st.tuples(_phases, _phases)
)


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(st.tuples(_per_setting, st.booleans()), min_size=1, max_size=8))
def test_per_setting_functions_equal_a_fresh_projection(calls):
    """Each call reads the projection its setting keeps; the sequence
    repeats settings, mixes triples and pairs, and asks for the correlation
    before or after the outcomes."""
    for phases, correlation_first in calls * 2:
        setting = PhaseSetting(*phases)
        k = len(phases)
        fresh = _setting_table(k, phases)
        if k == 3:
            outcomes, projected, correlation = (
                TRIPLE_OUTCOMES, joint_probability, correlation_qm3)
        else:
            outcomes, projected, correlation = (
                PAIR_OUTCOMES, joint_probability_eventready, correlation_qm2)
        if correlation_first:
            e = correlation(setting)
        probabilities = [projected(outcome, setting) for outcome in outcomes]
        if not correlation_first:
            e = correlation(setting)
        assert probabilities == list(fresh.probabilities)
        assert e == fresh.correlation
        assert type(e) is float


def test_outcomes_and_correlation_of_a_new_setting_cost_one_projection(monkeypatch):
    """A triple and a pair, asked for side by side as the exact-physics
    benchmark op does, cost one projection each over 16 reads."""
    calls = []

    def counted(k, phases):
        calls.append((k, phases))
        return _setting_table(k, phases)

    monkeypatch.setattr(experiment, "_setting_table", counted)
    triple, pair = PhaseSetting(0.123, 0.456, 0.789), PhaseSetting(0.123, 0.456)
    correlation_qm3(triple)
    correlation_qm2(pair)
    for outcome in TRIPLE_OUTCOMES:
        joint_probability(outcome, triple)
    for outcome in PAIR_OUTCOMES:
        joint_probability_eventready(outcome, pair)
    correlation_qm3(triple)
    correlation_qm2(pair)
    assert calls == [(3, (0.123, 0.456, 0.789)), (2, (0.123, 0.456))]


def test_setting_table_is_read_only_and_kept_by_its_setting():
    table = _setting_table(3, (0.1, 0.2, 0.3))
    assert type(table.probabilities) is tuple
    assert all(type(p) is float for p in table.probabilities)
    with pytest.raises(AttributeError):
        table.correlation = 1.0
    with pytest.raises(TypeError):
        table.probabilities[0] = 1.0
    for phases in ((0.1, 0.2, 0.3), (0.1, 0.2)):
        setting = PhaseSetting(*phases)
        projection = setting._projection
        assert setting._projection is projection
        assert projection == _setting_table(len(phases), phases)
        # A projected setting still equals, hashes and prints as a fresh one;
        # the repr is part of _require's error text.
        fresh = PhaseSetting(*phases)
        assert setting == fresh
        assert hash(setting) == hash(fresh)
        assert repr(setting) == repr(fresh)


@pytest.mark.parametrize("name", sorted(TESTS))
def test_stored_ideal_value_equals_a_fresh_projection(name):
    test = TESTS[name]
    phi_a, phi_a_prime = (phi * math.pi for phi in test.ideal)
    ideal = [_correlation(s) for s in test.settings(phi_a, phi_a_prime)]
    assert test.ideal_value == abs(expression_value(test.terms, ideal))


def test_quantum_maximum_and_ideal_phases_are_the_published_ones():
    assert TESTS["exp1"].quantum_maximum.hex() == (4.0).hex()
    assert TESTS["exp2"].quantum_maximum.hex() == (2 * math.sqrt(2)).hex()
    for name, ideal in (("exp1", (0.5, 0.0)), ("exp2", (0.25, -0.25))):
        assert TESTS[name].ideal == ideal
        assert [math.copysign(1.0, x) for x in TESTS[name].ideal] == [
            math.copysign(1.0, x) for x in ideal]


@st.composite
def inequality_tests(draw):
    """A test built from random terms on the (0, pi/2) grid."""
    three = draw(st.booleans())
    index = st.integers(0, 1)
    term = st.builds(ExpressionTerm, st.sampled_from((-1, 1)), index, index,
                     index if three else st.none())
    terms = tuple(draw(st.lists(term, min_size=1, max_size=6)))
    return InequalityTest("random", "random", terms)


@settings(max_examples=100, deadline=None)
@given(test=inequality_tests(), phases=st.tuples(*[st.floats(-FOUR_PI, FOUR_PI)] * 2))
def test_derived_quantum_maximum_bounds_the_projection_and_is_reached_at_ideal(test, phases):
    assume(phases[0] != phases[1])
    assert abs(test.ideal_value - test.quantum_maximum) <= 1e-12
    at_phases = [_correlation(s) for s in test.settings(*phases)]
    assert abs(expression_value(test.terms, at_phases)) <= test.quantum_maximum + 1e-12
