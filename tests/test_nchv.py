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
    ExpressionTerm,
    PhaseGrid,
    chsh_expression,
    classical_bound,
    expression_value,
    ghz_forcing,
    ghz_forcing_enumerated,
    mermin_expression,
)

HALF_PI = math.pi / 2.0
GRID2 = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI))
GRID3 = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI), (0.0, HALF_PI))


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


def test_enumerated_forcing_refuses_constraints_that_force_two_products(monkeypatch):
    # No entry of the real table is ambiguous, so plant one.
    monkeypatch.setitem(_FORCED_PRODUCTS, (+1, +1, +1), frozenset({+1, -1}))
    with pytest.raises(ValidationError, match="do not force a unique product"):
        ghz_forcing_enumerated(+1, +1, +1)


def test_ghz_forcing_rejects_non_dichotomic_input():
    with pytest.raises(ValidationError):
        ghz_forcing(1, 0, 1)
    with pytest.raises(ValidationError):
        ghz_forcing_enumerated(1, 1, 2)
    # True and 1.0 equal 1, but neither is a +-1 integer
    for forcing in (ghz_forcing, ghz_forcing_enumerated):
        for constraints in ((1.0, 1, 1), (1, True, 1), (1, 1, -1.0)):
            with pytest.raises(ValidationError, match="must be an integer"):
                forcing(*constraints)


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
    # an index equal to the grid size names a phase the grid does not have
    with pytest.raises(ValidationError, match="a index 2 out of range"):
        classical_bound((ExpressionTerm(1, 2, 0),), PhaseGrid((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("fields", [
    (0.5, 0, 0), (True, 0, 0), (1.0, 0, 0),
    (1, 0.5, 0), (1, 0, "0"), (1, 0, 0, False), (1, 0, 0, 1.0),
])
def test_expression_term_takes_only_int_signs_and_indices(fields):
    # An index of 0.5 passes classical_bound's range check and would be
    # enumerated as one more phase that the grid does not have.
    with pytest.raises(ValidationError, match="must be an integer"):
        ExpressionTerm(*fields)


@st.composite
def mixtures(draw):
    """An expression, a grid it reads, and a convex mixture of deterministic
    +-1 assignments on that grid, as (assignments, weights)."""
    kind = draw(st.sampled_from(("chsh", "mermin", "random")))
    low = 1 if kind == "random" else 2
    na, nb = draw(st.integers(low, 3)), draw(st.integers(low, 3))
    nc = draw(st.integers(2 if kind == "mermin" else 0, 3))
    if kind == "chsh":
        expression = chsh_expression()
    elif kind == "mermin":
        expression = mermin_expression()
    else:
        c_index = st.one_of(st.none(), st.integers(0, nc - 1)) if nc else st.none()
        term = st.builds(ExpressionTerm, st.sampled_from((-1, 1)), st.integers(0, na - 1),
                         st.integers(0, nb - 1), c_index)
        expression = tuple(draw(st.lists(term, min_size=1, max_size=6)))
    grid = PhaseGrid(*(tuple(float(i) for i in range(n)) for n in (na, nb, nc)))
    value = st.sampled_from((-1, 1))
    assignment = st.tuples(*(st.lists(value, min_size=n, max_size=n) for n in (na, nb, nc)))
    assignments = draw(st.lists(assignment, min_size=1, max_size=6))
    # Dyadic weights: k/64 sum to exactly 1, so every mixed correlation is
    # exactly a convex combination of +-1 and stays within [-1, 1].
    cuts = sorted(draw(st.lists(st.integers(0, 64), min_size=len(assignments) - 1,
                                max_size=len(assignments) - 1)))
    weights = [(hi - lo) / 64 for lo, hi in zip([0] + cuts, cuts + [64])]
    return expression, grid, assignments, weights


@settings(max_examples=300, deadline=None)
@given(mixtures())
def test_ensemble_values_never_exceed_bound(case):
    # A mixture of deterministic assignments cannot beat the best single
    # one, so classical_bound holds for every NCHV model.
    expression, grid, assignments, weights = case
    correlations = [
        math.fsum(
            w * a[t.a_index] * b[t.b_index] * (1 if t.c_index is None else c[t.c_index])
            for (a, b, c), w in zip(assignments, weights)
        )
        for t in expression
    ]
    assert expression_value(expression, correlations) <= classical_bound(expression, grid) + 1e-12


def test_chsh_value_recovers_published_sum():
    chsh = chsh_expression()
    assert expression_value(chsh, (0.586, 0.705, 0.714, -0.590)) == pytest.approx(2.595, abs=1e-12)
    assert expression_value(chsh, (1.0, 1.0, 1.0, -1.0)) == 4.0


def test_package_exports_expression_term_and_expression_value():
    from nchvsim import ExpressionTerm as exported_term, expression_value as exported_value

    assert exported_term is ExpressionTerm
    assert exported_value(chsh_expression(), (0.5, 0.5, 0.5, -0.5)) == 2.0


def test_chsh_value_accepts_unit_range_but_not_more():
    assert expression_value(chsh_expression(), (1.0, 0.0, 0.0, -1.0)) == 2.0
    for outside in (math.nextafter(1.0, 2.0), 1.04, -1.04, 1.06, math.nan):
        with pytest.raises(ValidationError):
            expression_value(chsh_expression(), (outside, 0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            expression_value(mermin_expression(), (0.0, 0.0, 0.0, outside))


def test_mermin_value_cases():
    # quantum predictions at the ideal phases
    mermin = mermin_expression()
    assert expression_value(mermin, (1.0, 1.0, 1.0, -1.0)) == -4.0
    assert expression_value(mermin, (0.0, 0.0, 0.0, 0.0)) == 0.0
    assert expression_value(mermin, (0.885, 0.897, 0.884, -0.885)) == pytest.approx(-3.551, abs=1e-12)


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
    assert expression_value(mermin_expression(), e).hex() == (-e1 - e2 - e3 + e4).hex()


def test_expression_value_needs_one_value_per_term():
    with pytest.raises(ValidationError):
        expression_value(chsh_expression(), (0.1, 0.2, 0.3))
    with pytest.raises(ValidationError):
        expression_value((), ())
