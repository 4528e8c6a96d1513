"""Exception types shared across the package.

Everything derives from SimulationError so the command-line front end can
map any domain failure to a single exit code while argparse keeps usage
errors separate.
"""

from __future__ import annotations

import math


class SimulationError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(SimulationError):
    """An argument violates a documented precondition."""


class EstimationError(SimulationError):
    """A statistical estimate cannot be formed (e.g. zero usable events)."""


class EnumerationLimitError(SimulationError):
    """An exhaustive enumeration would exceed the supported problem size."""


class FixtureParseError(SimulationError):
    """A replay input file is malformed.  Carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def is_finite(value) -> bool:
    """``math.isfinite``, with an int too large for a float counted as not
    finite rather than raising OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_int(name: str, value) -> None:
    """Reject anything but an int, bools included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_sign(name: str, value) -> None:
    """Reject anything but the int +1 or -1, True and 1.0 included."""
    if type(value) is not int:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value not in (-1, +1):
        raise ValidationError(f"{name} must be +1 or -1, got {value!r}")
