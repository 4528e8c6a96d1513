"""Noncontextual hidden-variable (NCHV) side of the analysis.

An NCHV model assigns every analyzer a predetermined +-1 result for each
phase it may be set to, independent of which other analyzers are read out.
This module derives the algebraic consequences of such assignments (the
forced fourth product, the two inequality bounds) and checks them by
exhaustive enumeration.  A mixture of assignments cannot exceed the best
single one, so the deterministic bounds hold for every NCHV model.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError, _require_int, _require_sign, is_finite

# Largest total number of binary assignment choices classical_bound will
# enumerate.  2**24 deterministic models is the supported ceiling.
MAX_ENUMERATION_BITS = 24


def _check_phases(name: str, phases: tuple[float, ...]):
    for phi in phases:
        if not is_finite(phi):
            raise ValidationError(f"{name} phase {phi!r} is not finite")
    if len(set(phases)) != len(phases):
        raise ValidationError(f"{name} phases must be distinct, got {phases!r}")


@dataclass(frozen=True)
class PhaseGrid:
    """Allowed analyzer phases, one ordered list per observable.

    ``c_phases`` may be empty for two-analyzer scenarios."""

    a_phases: tuple[float, ...]
    b_phases: tuple[float, ...]
    c_phases: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.a_phases or not self.b_phases:
            raise ValidationError("a_phases and b_phases must be non-empty")
        _check_phases("a", self.a_phases)
        _check_phases("b", self.b_phases)
        _check_phases("c", self.c_phases)

    def sizes(self) -> tuple[int, int, int]:
        return (len(self.a_phases), len(self.b_phases), len(self.c_phases))

    def total_bits(self) -> int:
        return sum(self.sizes())


def _check_index(name: str, index: int, size: int):
    if not 0 <= index < size:
        raise ValidationError(
            f"{name} index {index} out of range for {size} grid phases"
        )


@dataclass(frozen=True)
class ExpressionTerm:
    """One signed correlation in an inequality expression.  ``c_index`` is
    None for two-observable correlations."""

    sign: int
    a_index: int
    b_index: int
    c_index: int | None = None

    def __post_init__(self):
        _require_sign("sign", self.sign)
        _require_int("a_index", self.a_index)
        _require_int("b_index", self.b_index)
        if self.c_index is not None:
            _require_int("c_index", self.c_index)


_CHSH = (
    ExpressionTerm(+1, 0, 0),
    ExpressionTerm(+1, 0, 1),
    ExpressionTerm(+1, 1, 1),
    ExpressionTerm(-1, 1, 0),
)

_MERMIN = (
    ExpressionTerm(-1, 0, 0, 0),
    ExpressionTerm(-1, 1, 1, 0),
    ExpressionTerm(-1, 1, 0, 1),
    ExpressionTerm(+1, 0, 1, 1),
)


def chsh_expression() -> tuple[ExpressionTerm, ...]:
    """E(a0,b0) + E(a0,b1) + E(a1,b1) - E(a1,b0) on a 2x2 grid."""
    return _CHSH


def mermin_expression() -> tuple[ExpressionTerm, ...]:
    """-E(a0,b0,c0) - E(a1,b1,c0) - E(a1,b0,c1) + E(a0,b1,c1) on a 2x2x2
    grid: the three perfect-correlation terms, then the term they force."""
    return _MERMIN


def ghz_forcing(c1: int, c2: int, c3: int) -> int:
    """Product at the +1 term of ``mermin_expression()`` forced by products
    (c1, c2, c3) at its -1 terms.  Each phase is read by two of the four
    terms, so the four products multiply to +1, leaving c1*c2*c3."""
    _require_sign("constraint product", c1)
    _require_sign("constraint product", c2)
    _require_sign("constraint product", c3)
    return c1 * c2 * c3


# Every assignment (a0, a1, b0, b1, c0, c1) of the {0, pi/2}^3 grid, index 0
# at phase 0 and 1 at pi/2.
_GHZ_ASSIGNMENTS = tuple(itertools.product((+1, -1), repeat=6))


def _forced_products() -> dict[tuple[int, int, int], frozenset[int]]:
    """The product at the +1 term of ``mermin_expression()`` under every
    assignment, grouped by the constraints: its -1 term products, in order."""
    forced: dict[tuple[int, int, int], set[int]] = {}
    for values in _GHZ_ASSIGNMENTS:
        a, b, c = values[0:2], values[2:4], values[4:6]
        signed = [(t.sign, a[t.a_index] * b[t.b_index] * c[t.c_index]) for t in _MERMIN]
        constraints = tuple(p for sign, p in signed if sign < 0)
        (fourth,) = (p for sign, p in signed if sign > 0)
        forced.setdefault(constraints, set()).add(fourth)
    return {constraints: frozenset(products) for constraints, products in forced.items()}


_FORCED_PRODUCTS = _forced_products()


def ghz_forcing_enumerated(c1: int, c2: int, c3: int) -> int:
    """Same forced product, found by enumeration: all 64 assignments on the
    {0, pi/2}^3 grid are enumerated once, at import, and grouped by the
    constraints they meet; this looks up the products of the assignments
    that meet (c1, c2, c3).  Raises if they were not unanimous."""
    _require_sign("constraint product", c1)
    _require_sign("constraint product", c2)
    _require_sign("constraint product", c3)
    products = _FORCED_PRODUCTS[c1, c2, c3]
    if len(products) != 1:
        raise ValidationError(
            f"constraints ({c1}, {c2}, {c3}) do not force a unique product"
        )
    (product,) = products
    return product


@functools.cache
def _sign_table(n: int) -> np.ndarray:
    """All 2**n sign rows behind a leading +1 column, as read-only int64:
    bit j of the row index sets column 1 + j to -1.  classical_bound asks
    only for n <= MAX_ENUMERATION_BITS // 2, so the cache stays under 1 MB."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    table = np.hstack([np.ones((2**n, 1), dtype=np.int64), 1 - 2 * bits])
    table.flags.writeable = False
    return table


def classical_bound(
    expression: tuple[ExpressionTerm, ...] | list[ExpressionTerm], grid: PhaseGrid
) -> float:
    """Maximum of the expression over every deterministic assignment.

    Only the phases some term reads are enumerated: an unread phase's value
    cannot change the sum.  Of the read phases, the block with the most is
    optimized term-by-term, which is exact because the expression is linear
    in each observable's values once the others are fixed; the read phases of
    the other two blocks are enumerated outright.  The MAX_ENUMERATION_BITS
    ceiling still applies to the grid as given.  Mixtures cannot exceed
    deterministic assignments, so this is the NCHV bound."""
    if not expression:
        raise ValidationError("expression must contain at least one term")
    if grid.total_bits() > MAX_ENUMERATION_BITS:
        raise EnumerationLimitError(
            f"grid has {grid.total_bits()} binary choices; exhaustive "
            f"enumeration supports at most {MAX_ENUMERATION_BITS}"
        )

    # Check each term and number each block's read phases 1, 2, ... in
    # first-use order, 0 standing for a term that reads none of the block;
    # weights[i, j, k] sums the signs of the terms that read phases i, j, k.
    used: list[dict[int, int]] = [{}, {}, {}]
    weights = np.zeros([1 + n for n in grid.sizes()], dtype=np.int64)
    for term in expression:
        at = []
        for name, size, block, index in zip(
            "abc", grid.sizes(), used, (term.a_index, term.b_index, term.c_index)
        ):
            if index is None:
                at.append(0)
            else:
                _check_index(name, index, size)
                at.append(block.setdefault(index, 1 + len(block)))
        weights[tuple(at)] += term.sign
    # Optimize the first block with the most read phases, swapped to the
    # front; enumerate the other two.
    sizes = [len(block) for block in used]
    free = sizes.index(max(sizes))
    weights = weights[tuple(slice(1 + n) for n in sizes)].swapaxes(0, free)
    _, rows, columns = weights.shape
    # acc[f, x, y] is what the terms reading free phase f (none for f = 0)
    # add up to under assignment x of the first enumerated block and y of the
    # second; each free phase then takes the sign that makes its sum positive.
    acc = _sign_table(rows - 1) @ weights @ _sign_table(columns - 1).T
    np.abs(acc[1:], out=acc[1:])
    return float(acc.sum(axis=0).max())


def expression_value(
    expression: tuple[ExpressionTerm, ...] | list[ExpressionTerm], values
) -> float:
    """Signed sum of one correlation per term, ``values[k]`` for term k.

    Summed in expression order from the first signed term, so the result is
    the same float as writing the expression out by hand."""
    if len(values) != len(expression) or not expression:
        raise ValidationError("one correlation per expression term required")
    for k, value in enumerate(values, start=1):
        if not is_finite(value) or abs(value) > 1.0:
            raise ValidationError(f"e{k} must lie within [-1, 1], got {value!r}")
    total = expression[0].sign * values[0]
    for term, value in zip(expression[1:], values[1:]):
        total += term.sign * value
    return total

