"""Property tests of the batched projection table that every quantum
probability and correlation in ``nchvsim.experiment`` is read from."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchvsim.errors import ValidationError
from nchvsim.experiment import (
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    PhaseSetting,
    _bras,
    _outcome_table,
    correlation_qm2,
    correlation_qm3,
    correlations,
    joint_probability,
    joint_probability_closed_form,
    joint_probability_eventready,
    joint_probability_eventready_closed_form,
)

FOUR_PI = 4.0 * math.pi


@st.composite
def phase_tables(draw):
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 64))
    phase = st.floats(-FOUR_PI, FOUR_PI, allow_nan=False, allow_infinity=False)
    return k, np.array(draw(st.lists(st.lists(phase, min_size=k, max_size=k),
                                     min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(phase_tables())
def test_table_matches_scalar_wrappers_and_closed_forms(case):
    k, phases = case
    table = _outcome_table(k, phases)
    assert table.shape == (len(phases), 2**k)
    setting_list = [PhaseSetting(*map(float, row)) for row in phases]
    if k == 3:
        outcomes, projected, closed, correlation = (
            TRIPLE_OUTCOMES, joint_probability, joint_probability_closed_form,
            correlation_qm3)
    else:
        outcomes, projected, closed, correlation = (
            PAIR_OUTCOMES, joint_probability_eventready,
            joint_probability_eventready_closed_form, correlation_qm2)
    batched = correlations(setting_list)
    for row, setting, e_batched in zip(table, setting_list, batched):
        for p, outcome in zip(row, outcomes):
            assert abs(p - projected(outcome, setting)) <= 1e-12
            assert abs(p - closed(outcome, setting)) <= 1e-12
        assert abs(e_batched - correlation(setting)) <= 1e-12
        assert abs(e_batched - math.sin(setting.phase_sum())) <= 1e-12
        assert type(e_batched) is float


@settings(max_examples=200, deadline=None)
@given(phase_tables())
def test_table_rows_are_distributions_with_uniform_marginals(case):
    k, phases = case
    table = _outcome_table(k, phases)
    assert np.all(table >= 0.0)
    assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12
    by_analyzer = table.reshape((len(phases),) + (2,) * k)
    for axis in range(1, k + 1):
        others = tuple(a for a in range(1, k + 1) if a != axis)
        assert np.max(np.abs(by_analyzer.sum(axis=others) - 0.5)) <= 1e-12


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
    kets = _bras(k, phases).conj()
    for n, row in enumerate(phases):
        for j, phase in enumerate(row):
            for s, sign in enumerate((+1, -1)):
                expected = np.array(_kets_by_formula(k, float(phase), sign)[j])
                assert np.max(np.abs(kets[n, j, s] - expected)) <= 1e-15


@pytest.mark.parametrize(
    "k, phases",
    [
        (3, np.zeros(3)),  # one setting, not a table
        (3, np.zeros((0, 3))),  # no settings
        (3, np.zeros((4, 2))),  # columns do not match k
        (2, np.zeros((4, 3))),
        (2, np.zeros((2, 2, 2))),
        (4, np.zeros((1, 4))),  # unsupported analyzer counts
        (1, np.zeros((1, 1))),
        (3, np.array([[0.0, math.nan, 0.0]])),
        (2, np.array([[math.inf, 0.0]])),
        (3, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -math.inf]])),
    ],
)
def test_table_rejects_malformed_phase_arrays(k, phases):
    with pytest.raises(ValidationError):
        _outcome_table(k, phases)


def test_correlations_need_one_configuration():
    with pytest.raises(ValidationError):
        correlations([])
    with pytest.raises(ValidationError):
        correlations([PhaseSetting(0.0, 0.0, 0.0), PhaseSetting(0.0, 0.0)])
    with pytest.raises(ValidationError):
        correlation_qm3(PhaseSetting(0.0, 0.0))
    with pytest.raises(ValidationError):
        correlation_qm2(PhaseSetting(0.0, 0.0, 0.0))
