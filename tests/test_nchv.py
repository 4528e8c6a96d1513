import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchvsim.errors import EnumerationLimitError, ValidationError
from nchvsim.nchv import (
    _FORCED_PRODUCTS,
    _GHZ_ASSIGNMENTS,
    Ensemble,
    ExpressionTerm,
    HiddenAssignment,
    PhaseGrid,
    chsh_expression,
    chsh_value,
    classical_bound,
    correlation_nchv2,
    correlation_nchv3,
    expression_value,
    ghz_forcing,
    ghz_forcing_enumerated,
    mermin_expression,
    mermin_value,
    nchv_lower_bound,
)

HALF_PI = math.pi / 2.0
GRID2 = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI))
GRID3 = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI), (0.0, HALF_PI))


def random_assignment(rng, grid):
    na, nb, nc = grid.sizes()
    pick = lambda n: tuple(int(v) for v in rng.choice([-1, 1], size=n))
    return HiddenAssignment(pick(na), pick(nb), pick(nc))


def test_correlation_nchv3_all_plus_ensemble():
    assignment = HiddenAssignment((1, 1), (1, 1), (1, 1))
    ensemble = Ensemble.from_runs([assignment])
    assert correlation_nchv3(ensemble, GRID3, (0, 1, 0)) == 1.0


def test_correlation_nchv3_sign_flip_cancels():
    base = HiddenAssignment((1, -1), (1, 1), (-1, 1))
    flipped = HiddenAssignment((-1, 1), (1, 1), (-1, 1))
    ensemble = Ensemble.from_runs([base, flipped])
    for ia, ib, ic in itertools.product(range(2), repeat=3):
        assert correlation_nchv3(ensemble, GRID3, (ia, ib, ic)) == 0.0


def test_correlation_nchv3_weighted_hand_sum():
    runs = [
        HiddenAssignment((+1, -1), (+1, +1), (-1, +1)),
        HiddenAssignment((-1, -1), (+1, -1), (+1, +1)),
        HiddenAssignment((+1, +1), (-1, -1), (-1, -1)),
        HiddenAssignment((-1, +1), (-1, +1), (+1, -1)),
    ]
    ensemble = Ensemble(tuple(runs), (0.4, 0.3, 0.2, 0.1))
    # products at (0,0,0): -1, -1, +1, +1 weighted by 0.4/0.3/0.2/0.1
    assert correlation_nchv3(ensemble, GRID3, (0, 0, 0)) == pytest.approx(-0.4, abs=1e-15)


def test_correlation_nchv_against_direct_average():
    rng = np.random.default_rng(31)
    runs = [random_assignment(rng, GRID3) for _ in range(64)]
    ensemble = Ensemble.from_runs(runs)
    for indices in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
        ia, ib, ic = indices
        direct = sum(
            r.a_values[ia] * r.b_values[ib] * r.c_values[ic] for r in runs
        ) / len(runs)
        assert correlation_nchv3(ensemble, GRID3, indices) == pytest.approx(direct, abs=1e-12)
    for indices in [(0, 0), (1, 1)]:
        ia, ib = indices
        direct = sum(r.a_values[ia] * r.b_values[ib] for r in runs) / len(runs)
        assert correlation_nchv2(ensemble, GRID3, indices) == pytest.approx(direct, abs=1e-12)


def test_correlation_index_and_shape_validation():
    ensemble = Ensemble.from_runs([HiddenAssignment((1, 1), (1, 1), (1, 1))])
    with pytest.raises(ValidationError):
        correlation_nchv3(ensemble, GRID3, (0, 0, 2))
    with pytest.raises(ValidationError):
        correlation_nchv3(ensemble, PhaseGrid((0.0,), (0.0,), (0.0,)), (0, 0, 0))


def test_ensemble_validation():
    assignment = HiddenAssignment((1,), (1,), (1,))
    with pytest.raises(ValidationError):
        Ensemble((assignment,), (0.5,))
    with pytest.raises(ValidationError):
        Ensemble((assignment,), (-1.0,))
    with pytest.raises(ValidationError):
        Ensemble.from_runs([])
    with pytest.raises(ValidationError):
        HiddenAssignment((2,), (1,), (1,))


def test_grid_validation():
    with pytest.raises(ValidationError):
        PhaseGrid((), (0.0,))
    with pytest.raises(ValidationError):
        PhaseGrid((0.0, 0.0), (0.0,))
    with pytest.raises(ValidationError):
        PhaseGrid((math.inf,), (0.0,))


@pytest.mark.parametrize(
    "constraints,expected",
    [
        ((+1, +1, +1), +1),
        ((+1, +1, -1), -1),
        ((+1, -1, -1), +1),
        ((-1, -1, -1), -1),
    ],
)
def test_ghz_forcing_is_constraint_product(constraints, expected):
    assert ghz_forcing(*constraints) == expected


def test_ghz_forcing_agrees_with_enumeration_everywhere():
    for constraints in itertools.product((+1, -1), repeat=3):
        assert ghz_forcing(*constraints) == ghz_forcing_enumerated(*constraints)


def test_forcing_map_groups_all_64_assignments_under_8_constraint_triples():
    assert len(_GHZ_ASSIGNMENTS) == len(set(_GHZ_ASSIGNMENTS)) == 64
    assert sorted(_FORCED_PRODUCTS) == sorted(itertools.product((+1, -1), repeat=3))
    for constraints, products in _FORCED_PRODUCTS.items():
        assert products == {ghz_forcing(*constraints)}


def test_ghz_forcing_rejects_non_dichotomic_input():
    with pytest.raises(ValidationError):
        ghz_forcing(1, 0, 1)
    with pytest.raises(ValidationError):
        ghz_forcing_enumerated(1, 1, 2)


def test_classical_bound_chsh_is_two():
    assert classical_bound(chsh_expression(), GRID2) == 2.0


def test_classical_bound_mermin_is_two():
    assert classical_bound(mermin_expression(), GRID3) == 2.0


def test_classical_bound_single_term():
    expression = (ExpressionTerm(+1, 0, 0, 0),)
    assert classical_bound(expression, GRID3) == 1.0


def test_classical_bound_matches_naive_enumeration():
    # independent oracle: loop over every assignment explicitly
    rng = np.random.default_rng(17)
    grid = PhaseGrid((0.0, 1.0, 2.0), (0.0, 1.0), (0.0, 1.0))
    terms = []
    for _ in range(5):
        terms.append(
            ExpressionTerm(
                int(rng.choice([-1, 1])),
                int(rng.integers(3)),
                int(rng.integers(2)),
                int(rng.integers(2)),
            )
        )
    best = -math.inf
    for a in itertools.product((-1, 1), repeat=3):
        for b in itertools.product((-1, 1), repeat=2):
            for c in itertools.product((-1, 1), repeat=2):
                value = sum(
                    t.sign * a[t.a_index] * b[t.b_index] * c[t.c_index] for t in terms
                )
                best = max(best, value)
    assert classical_bound(tuple(terms), grid) == float(best)


def test_classical_bound_mixed_two_and_three_point_terms():
    grid = PhaseGrid((0.0, 1.0), (0.0, 1.0), (0.0,))
    expression = (
        ExpressionTerm(+1, 0, 0),
        ExpressionTerm(+1, 0, 1, 0),
        ExpressionTerm(-1, 1, 0, 0),
    )
    best = -math.inf
    for a in itertools.product((-1, 1), repeat=2):
        for b in itertools.product((-1, 1), repeat=2):
            for c in itertools.product((-1, 1), repeat=1):
                value = (
                    a[0] * b[0] + a[0] * b[1] * c[0] - a[1] * b[0] * c[0]
                )
                best = max(best, value)
    assert classical_bound(expression, grid) == float(best)


def test_classical_bound_refuses_oversized_grids():
    grid = PhaseGrid(
        tuple(float(i) for i in range(9)),
        tuple(float(i) for i in range(8)),
        tuple(float(i) for i in range(8)),
    )
    with pytest.raises(EnumerationLimitError):
        classical_bound(chsh_expression(), grid)


def test_classical_bound_validates_indices():
    with pytest.raises(ValidationError):
        classical_bound((ExpressionTerm(+1, 0, 0, 5),), GRID3)
    with pytest.raises(ValidationError):
        classical_bound((), GRID3)


def test_ensemble_values_never_exceed_bound():
    rng = np.random.default_rng(41)
    chsh_limit = classical_bound(chsh_expression(), GRID2)
    mermin_limit = classical_bound(mermin_expression(), GRID3)
    for _ in range(50):
        runs = [random_assignment(rng, GRID3) for _ in range(rng.integers(1, 12))]
        ensemble = Ensemble.from_runs(runs)
        m = (
            correlation_nchv3(ensemble, GRID3, (0, 1, 1))
            - correlation_nchv3(ensemble, GRID3, (0, 0, 0))
            - correlation_nchv3(ensemble, GRID3, (1, 1, 0))
            - correlation_nchv3(ensemble, GRID3, (1, 0, 1))
        )
        assert abs(m) <= mermin_limit + 1e-12
        runs2 = [random_assignment(rng, GRID2) for _ in range(rng.integers(1, 12))]
        ensemble2 = Ensemble.from_runs(runs2)
        s = (
            correlation_nchv2(ensemble2, GRID2, (0, 0))
            + correlation_nchv2(ensemble2, GRID2, (0, 1))
            + correlation_nchv2(ensemble2, GRID2, (1, 1))
            - correlation_nchv2(ensemble2, GRID2, (1, 0))
        )
        assert abs(s) <= chsh_limit + 1e-12


def test_chsh_value_recovers_published_sum():
    assert chsh_value(0.586, 0.705, 0.714, -0.590) == pytest.approx(2.595, abs=1e-12)
    assert chsh_value(1.0, 1.0, 1.0, -1.0) == 4.0


def test_chsh_value_accepts_unit_range_but_not_more():
    assert chsh_value(1.0, 0.0, 0.0, -1.0) == 2.0
    for outside in (math.nextafter(1.0, 2.0), 1.04, -1.04, 1.06, math.nan):
        with pytest.raises(ValidationError):
            chsh_value(outside, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            mermin_value(0.0, 0.0, 0.0, outside)


def test_mermin_value_cases():
    # quantum predictions at the ideal phases
    assert mermin_value(-1.0, 1.0, 1.0, 1.0) == -4.0
    assert mermin_value(0.0, 0.0, 0.0, 0.0) == 0.0
    assert mermin_value(-0.885, 0.885, 0.897, 0.884) == pytest.approx(-3.551, abs=1e-12)


def test_nchv_lower_bound_published_values():
    bound, sigma = nchv_lower_bound(0.885, 0.897, 0.884, (0.005, 0.005, 0.005))
    assert bound == pytest.approx(0.666, abs=1e-12)
    assert sigma == pytest.approx(0.005 * math.sqrt(3.0), abs=1e-15)


def test_nchv_lower_bound_edges():
    bound, sigma = nchv_lower_bound(1.0, 1.0, 1.0, (0.0, 0.0, 0.0))
    assert bound == 1.0
    assert sigma == 0.0
    assert nchv_lower_bound(0.9, 0.9, 0.9, (0.01, 0.01, 0.01))[0] == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ValidationError):
        nchv_lower_bound(1.01, 0.9, 0.9, (0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        nchv_lower_bound(0.9, 0.9, 0.9, (0.0, -0.1, 0.0))


def test_forced_product_contradicts_quantum_fourth_correlation():
    # perfect-correlation constraints all +1 force the fourth product to +1,
    # while the quantum fourth correlation is -1
    assert ghz_forcing(+1, +1, +1) == +1
    from nchvsim.experiment import PhaseSetting, correlation_qm3

    quantum = correlation_qm3(PhaseSetting(HALF_PI, HALF_PI, HALF_PI))
    assert quantum == pytest.approx(-1.0, abs=1e-12)


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(e=st.tuples(_UNIT, _UNIT, _UNIT, _UNIT))
def test_expression_value_is_the_hand_written_sum_bit_for_bit(e):
    e1, e2, e3, e4 = e
    assert expression_value(chsh_expression(), e).hex() == (e1 + e2 + e3 - e4).hex()
    assert expression_value(mermin_expression(), e).hex() == (e1 - e2 - e3 - e4).hex()
    assert chsh_value(*e) == e1 + e2 + e3 - e4
    assert mermin_value(*e) == e1 - e2 - e3 - e4


def test_expression_value_needs_one_value_per_term():
    with pytest.raises(ValidationError):
        expression_value(chsh_expression(), (0.1, 0.2, 0.3))
    with pytest.raises(ValidationError):
        expression_value((), ())
