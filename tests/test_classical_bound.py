"""classical_bound against brute force, its invariance under unread phases,
and the memory its enumeration takes."""

import itertools
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from nchvsim.nchv import ExpressionTerm, PhaseGrid, classical_bound

MB = 1_000_000


def grid_of(sizes):
    return PhaseGrid(*(tuple(float(i) for i in range(n)) for n in sizes))


def brute_force(terms, sizes):
    """Maximum over every +-1 assignment of every grid bit."""
    na, nb, _ = sizes
    best = None
    for values in itertools.product((+1, -1), repeat=sum(sizes)):
        a, b, c = values[:na], values[na : na + nb], values[na + nb :]
        total = sum(
            t.sign
            * a[t.a_index]
            * b[t.b_index]
            * (1 if t.c_index is None else c[t.c_index])
            for t in terms
        )
        best = total if best is None else max(best, total)
    return float(best)


@st.composite
def expressions_on_grids(draw, max_bits=14, n_terms=st.integers(1, 6), max_index=3):
    """``n_terms`` terms with random signs and indices up to ``max_index``,
    mixing two- and three-analyzer terms, on the smallest grid holding their
    indices (``read``) and on that grid widened by at least one phase no term
    reads (``grid``).  ``max_bits`` must exceed ``3 * (max_index + 1)``."""
    three = st.booleans()
    index = st.integers(0, max_index)
    terms = tuple(
        ExpressionTerm(
            draw(st.sampled_from((+1, -1))),
            draw(index),
            draw(index),
            draw(index) if draw(three) else None,
        )
        for _ in range(draw(n_terms))
    )
    read = (
        1 + max(t.a_index for t in terms),
        1 + max(t.b_index for t in terms),
        max((1 + t.c_index for t in terms if t.c_index is not None), default=0),
    )
    room = max_bits - sum(read)
    extra_a = draw(st.integers(0, room))
    extra_b = draw(st.integers(0, room - extra_a))
    low_c = 1 if extra_a + extra_b == 0 else 0
    extra_c = draw(st.integers(low_c, room - extra_a - extra_b))
    grid = (read[0] + extra_a, read[1] + extra_b, read[2] + extra_c)
    return terms, read, grid


@settings(max_examples=100, deadline=None)
@given(expressions_on_grids())
def test_classical_bound_equals_brute_force(case):
    terms, _, sizes = case
    assert classical_bound(terms, grid_of(sizes)) == brute_force(terms, sizes)


@st.composite
def many_terms_on_grids(draw):
    """7-40 terms on grids of at most 10 bits: each term is drawn afresh, a
    repeat of an earlier one or its negation, so cells of the weight table
    add up and cancel."""
    terms, _, sizes = draw(
        expressions_on_grids(max_bits=10, n_terms=st.integers(7, 40), max_index=2)
    )
    terms = list(terms)
    for k in range(1, len(terms)):
        earlier = terms[draw(st.integers(0, k - 1))]
        sign = draw(st.sampled_from((None, +1, -1)))
        if sign is not None:
            terms[k] = ExpressionTerm(sign * earlier.sign, earlier.a_index,
                                      earlier.b_index, earlier.c_index)
    return tuple(terms), sizes


@settings(max_examples=100, deadline=None)
@given(many_terms_on_grids())
def test_many_repeated_and_cancelling_terms_equal_brute_force(case):
    terms, sizes = case
    assert classical_bound(terms, grid_of(sizes)) == brute_force(terms, sizes)


@settings(max_examples=150, deadline=None)
@given(expressions_on_grids(max_bits=24))
def test_unread_phases_never_change_the_bound(case):
    terms, read, sizes = case
    assert classical_bound(terms, grid_of(sizes)) == classical_bound(
        terms, grid_of(read)
    )


def peak_bytes(terms, sizes):
    grid = grid_of(sizes)
    classical_bound(terms, grid)
    tracemalloc.start()
    try:
        classical_bound(terms, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bound_on_8x8x8_grid_with_five_terms_stays_small():
    terms = (
        ExpressionTerm(+1, 0, 1, 2),
        ExpressionTerm(-1, 3, 4, 5),
        ExpressionTerm(+1, 6, 7, 0),
        ExpressionTerm(-1, 1, 2, 3),
        ExpressionTerm(+1, 4, 5, 6),
    )
    assert peak_bytes(terms, (8, 8, 8)) < 1 * MB


def test_bound_on_12x12_grid_with_five_terms_stays_small():
    terms = (
        ExpressionTerm(+1, 0, 1),
        ExpressionTerm(-1, 3, 4),
        ExpressionTerm(+1, 6, 7),
        ExpressionTerm(-1, 9, 2),
        ExpressionTerm(+1, 11, 10),
    )
    assert peak_bytes(terms, (12, 12, 0)) < 1 * MB


def test_bound_reading_every_phase_of_8x8x8_stays_within_6_mb():
    terms = tuple(
        ExpressionTerm(+1 if (a + b) % 3 else -1, a, b, (3 * a + b) % 8)
        for a in range(8)
        for b in range(8)
    )
    assert {t.c_index for t in terms} == set(range(8))
    assert peak_bytes(terms, (8, 8, 8)) <= 6 * MB


def test_bound_with_512_terms_on_8x8x8_is_pinned_and_stays_within_6_mb():
    terms = tuple(
        ExpressionTerm(+1 if (a + 2 * b + 3 * c) % 5 < 2 else -1, a, b, c)
        for a in range(8)
        for b in range(8)
        for c in range(8)
    )
    assert classical_bound(terms, grid_of((8, 8, 8))) == 230.0
    assert peak_bytes(terms, (8, 8, 8)) <= 6 * MB


def test_bound_reading_every_phase_of_2x11x11_optimizes_a_largest_block():
    # Enumerating the two 11-phase blocks instead of optimizing one of them
    # builds a (3, 2048, 2048) int64 array, 100 MB; the (12, 4, 2048) one
    # of the right choice is 0.8 MB.
    terms = tuple(ExpressionTerm(1, i % 2, i, 3 * i % 11) for i in range(11)) + tuple(
        ExpressionTerm(-1, 1, i, i) for i in range(11)
    )
    assert {t.c_index for t in terms} == set(range(11))
    assert classical_bound(terms, grid_of((2, 11, 11))) == 20.0
    assert peak_bytes(terms, (2, 11, 11)) < 8 * MB
