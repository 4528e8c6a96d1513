"""Quantum model of the two linked interferometric tests.

The source emits a polarization-entangled photon pair.  Photon 1 passes a
polarizing beam splitter (PBS) that transmits H into the lower exit ``d``
and reflects V into the upper exit ``u``, which entangles its path with
both polarizations.  Three dichotomic analyzers follow:

* ``A`` recombines the two paths of photon 1 on a beam splitter with a
  relative phase ``phi_a``; +1 means the photon left through the upper exit.
* ``B`` analyzes the polarization of photon 1 behind a phase plate set to
  ``phi_b`` (fast axis along V).
* ``C`` analyzes the polarization of photon 2 behind a phase plate set to
  ``phi_c`` (fast axis along H).

Triple coincidences follow ``P(A,B,C) = (1 + A*B*C*sin(phi_a+phi_b+phi_c))/8``.

In the event-ready variant, firing ``C = +1`` at ``phi_c = 0`` projects
photon 1 onto a maximally entangled state of its polarization and path
(exits relabeled ``a``/``b`` behind the PBS), and the remaining pair of
analyzers gives ``E(A,B) = sin(phi_a + phi_b)``.

Every probability here is computed by projecting the state onto analyzer
eigenstates.  The states and the analyzer bras are written out below as
literal arrays, with their derivation in comments.  Each bra is a
phase-free part plus a part times z = e^{-i phi}, so every amplitude is a
polynomial in the z of the k analyzers; its (2**k, 2**k) coefficients are
contracted from the literal arrays once, at import.  One path projects:
``_setting_table`` forms the 2**k products of one setting's z, multiplies
them into that table and keeps the setting's probabilities and
correlation as Python floats.  The per-outcome functions and
``correlations`` all read it.  Closed-form counterparts are provided
separately so tests can confront the two routes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, is_finite

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_SIGNS = (+1, -1)


@dataclass(frozen=True)
class PhaseSetting:
    """Analyzer phases in radians.  ``phi_c`` is None in the two-analyzer
    (event-ready) configuration."""

    phi_a: float
    phi_b: float
    phi_c: float | None = None

    def __post_init__(self):
        for name in ("phi_a", "phi_b", "phi_c"):
            value = getattr(self, name)
            if value is None:
                continue
            if not is_finite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")

    @property
    def analyzers(self) -> int:
        """2 in the event-ready configuration (no ``phi_c``), else 3."""
        return 2 if self.phi_c is None else 3

    def phase_sum(self) -> float:
        total = self.phi_a + self.phi_b
        if self.phi_c is not None:
            total += self.phi_c
        return total

    def canonical(self) -> PhaseSetting:
        """Phases wrapped into [-pi, pi) for reporting; the physics is
        2*pi-periodic so this never changes a probability."""
        return PhaseSetting(
            _wrap(self.phi_a),
            _wrap(self.phi_b),
            None if self.phi_c is None else _wrap(self.phi_c),
        )


def _wrap(phi: float) -> float:
    wrapped = math.remainder(phi, 2.0 * math.pi)
    return -math.pi if wrapped == math.pi else wrapped


@dataclass(frozen=True)
class Outcome:
    """Joint +-1 result of the analyzers; ``c`` is None for two-analyzer runs."""

    a: int
    b: int
    c: int | None = None

    def __post_init__(self):
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if value is None:
                continue
            if value not in (-1, +1):
                raise ValidationError(f"outcome {name} must be +1 or -1, got {value!r}")

    def product(self) -> int:
        return self.a * self.b * (1 if self.c is None else self.c)


# Fixed enumeration orders; the Monte Carlo sampler and the serializers
# depend on these being stable.
TRIPLE_OUTCOMES = tuple(
    Outcome(a, b, c) for a in _SIGNS for b in _SIGNS for c in _SIGNS
)
PAIR_OUTCOMES = tuple(Outcome(a, b) for a in _SIGNS for b in _SIGNS)
OUTCOMES = {3: TRIPLE_OUTCOMES, 2: PAIR_OUTCOMES}  # by number of analyzers


# The emitted pair is (|V H> + |H V>)/sqrt(2) over (pol1, pol2).  The PBS
# reflects V into the upper exit u and transmits H into the lower exit d,
# so photon 1's path copies its polarization:
#     (|u V H> + |d H V>)/sqrt(2)  over (path1 u/d, pol1 H/V, pol2 H/V).
# On every axis index 0 is u or H and index 1 is d or V.
_GHZ = np.array(
    [[[0, 0], [1, 0]],  # u: |u V H>
     [[0, 1], [0, 0]]],  # d: |d H V>
    dtype=np.complex128,
) * _INV_SQRT2

# Firing C = +1 at phi_c = 0 projects photon 2 onto (|V> + |H>)/sqrt(2)
# and leaves photon 1 in (|u V> + |d H>)/sqrt(2).  Behind the right PBS
# its exits are relabelled u -> b and d -> a, which gives
#     (|a H> + |b V>)/sqrt(2)  over (path1 a/b, pol1 H/V),
# with the A axis first like the GHZ array.
_EVENTREADY = np.array([[1, 0], [0, 1]], dtype=np.complex128) * _INV_SQRT2

# Analyzer eigenstates of eigenvalue sign = +-1, each with one phase-free
# component and one that carries sign * e^{i phase}:
#     A = (i|d> + sign e^{i phi_a}|u>)/sqrt(2)  beam splitter on u/d
#     B = (|H> + sign e^{i phi_b}|V>)/sqrt(2)   photon 1, plate fast axis V
#     C = (|V> + sign e^{i phi_c}|H>)/sqrt(2)   photon 2, plate fast axis H
#     A' = (i|a> + sign e^{i phi_a}|b>)/sqrt(2) event-ready A on exits a/b
# The tables hold their conjugates, the bras, as (analyzer, sign +1/-1,
# basis index on that analyzer's axis).  ``_FIXED`` is the phase-free
# component (i becomes -i); ``_PHASED`` is sign/sqrt(2), the coefficient
# of e^{-i phase}.  Three analyzers read rows (A, B, C), the
# event-ready pair reads (A', B).
_FIXED = np.array([
    [[0, -1j], [0, -1j]],  # A: -i<d|
    [[1, 0], [1, 0]],  # B: <H|
    [[0, 1], [0, 1]],  # C: <V|
    [[-1j, 0], [-1j, 0]],  # A': -i<a|
]) * _INV_SQRT2
_PHASED = np.array([
    [[1, 0], [-1, 0]],  # A: sign <u|
    [[0, 1], [0, -1]],  # B: sign <V|
    [[1, 0], [-1, 0]],  # C: sign <H|
    [[0, 1], [0, -1]],  # A': sign <b|
]) * _INV_SQRT2


class _Route(NamedTuple):
    """Dense projection data for k analyzers."""

    state: np.ndarray  # one axis per analyzer, in the order (A, B[, C])
    fixed: np.ndarray  # (k, 2, 2): each bra's phase-free component
    phased: np.ndarray  # (k, 2, 2): sign/sqrt(2) where a bra carries e^{-i phase}
    subscripts: str
    products: np.ndarray  # A*B(*C) of each outcome, in outcome order
    coefficients: np.ndarray  # (2**k, 2**k): see _precontract


def _precontract(state, fixed, phased, subscripts) -> np.ndarray:
    """Amplitude coefficients of each phase monomial, shape (2**k, 2**k).

    Each bra is ``fixed + phased * z`` with z = e^{-i phase}, so every
    amplitude is a polynomial in (z_A, z_B[, z_C]) of degree at most one in
    each.  Row m holds the coefficients of the monomial prod_{j in S} z_j,
    where bit k-1-j of m puts analyzer j in S (A is the high bit), over the
    outcomes in outcome order: the state contracted with the phased
    component of the analyzers in S and the phase-free one of the rest."""
    k = len(fixed)
    subscripts = subscripts.replace("n", "")
    rows = []
    for chosen in itertools.product((False, True), repeat=k):
        bras = (phased[j] if pick else fixed[j] for j, pick in enumerate(chosen))
        rows.append(np.einsum(subscripts, *bras, state).reshape(-1))
    return np.array(rows)


def _route(state, fixed, phased, subscripts, outcomes) -> _Route:
    products = np.array([o.product() for o in outcomes], dtype=np.float64)
    return _Route(state, fixed, phased, subscripts, products,
                  _precontract(state, fixed, phased, subscripts))


_ROUTES = {
    3: _route(_GHZ, _FIXED[:3], _PHASED[:3], "nax,nby,ncz,xyz->nabc", OUTCOMES[3]),
    2: _route(_EVENTREADY, _FIXED[[3, 1]], _PHASED[[3, 1]], "nax,nby,xy->nab", OUTCOMES[2]),
}

# Column of each outcome's (a, b, c) signs in a setting's probabilities;
# pair outcomes have c = None.
_COLUMNS = {
    (o.a, o.b, o.c): column
    for outcomes in OUTCOMES.values()
    for column, o in enumerate(outcomes)
}

# (0, -i): e^{phase * _EXPONENTS} is (1, e^{-i phase}), the two factors an
# analyzer contributes to the phase monomials.
_EXPONENTS = np.array([0.0, -1.0j])


def _require(k: int, setting: PhaseSetting, outcome: Outcome | None = None):
    if setting.analyzers != k:
        raise ValidationError(f"this operation needs a setting of {k} analyzers, got {setting!r}")
    if outcome is not None and (outcome.c is None) != (k == 2):
        raise ValidationError(f"this operation needs an outcome of {k} analyzers, got {outcome!r}")


def joint_probability(outcome: Outcome, setting: PhaseSetting) -> float:
    """Triple-coincidence probability by explicit eigenstate projection."""
    _require(3, setting, outcome)
    table = _setting_table(3, (setting.phi_a, setting.phi_b, setting.phi_c))
    return table.probabilities[_COLUMNS[outcome.a, outcome.b, outcome.c]]


def joint_probability_closed_form(outcome: Outcome, setting: PhaseSetting) -> float:
    """(1 + A*B*C*sin(phi_a+phi_b+phi_c))/8, the sinusoid the projection
    route must reproduce."""
    _require(3, setting, outcome)
    return (1.0 + outcome.product() * math.sin(setting.phase_sum())) / 8.0


def correlation_qm3(setting: PhaseSetting) -> float:
    """Expectation of the A*B*C product, summed over all eight outcomes."""
    _require(3, setting)
    return _setting_table(3, (setting.phi_a, setting.phi_b, setting.phi_c)).correlation


def eventready_state() -> np.ndarray:
    """Photon-1 state heralded by C = +1 at phi_c = 0,
    (|H a> + |V b>)/sqrt(2), as a flat complex array over (pol1, path1) in
    the order H a, H b, V a, V b."""
    return _EVENTREADY.T.reshape(4)


def conditional_state_after_trigger() -> np.ndarray:
    """Event-ready state computed the long way: contract the GHZ array with
    the trigger bra <C=+1| at phi_c = 0, renormalize, and relabel the exits
    (u -> b, d -> a).  Same layout as :func:`eventready_state`, which it
    must match within 1e-12."""
    trigger = _FIXED[2, 0] + _PHASED[2, 0]  # (<H| + <V|)/sqrt(2)
    photon1 = np.einsum("z,xyz->yx", trigger, _GHZ)[:, ::-1]  # (pol1, path a/b)
    return (photon1 / np.linalg.norm(photon1)).reshape(4)


# The per-outcome functions are called once per outcome of one setting, and
# callers check a triple and a pair side by side, so the last two settings
# projected are kept.
_SETTING_TABLES = 2


class _SettingTable(NamedTuple):
    """One setting's projection as Python floats."""

    probabilities: tuple[float, ...]  # in outcome order, see _COLUMNS
    correlation: float


@functools.lru_cache(maxsize=_SETTING_TABLES)
def _setting_table(n_analyzers: int, phases: tuple) -> _SettingTable:
    """Born probabilities of all 2**k outcomes at one setting, and their
    A*B(*C) expectation.  Every probability and correlation of this module
    is read from here.

    Phases that compare equal give bit-identical tables (0.0 and -0.0, 1
    and 1.0), so sharing their cache entry changes no probability."""
    route = _ROUTES.get(n_analyzers)
    if route is None or len(phases) != n_analyzers or not all(map(math.isfinite, phases)):
        raise ValidationError(
            f"expected 2 or 3 analyzers and as many finite phases, "
            f"got {n_analyzers!r} and {phases!r}"
        )
    table = _project(route, phases)
    return _SettingTable(tuple(table.tolist()), (table * route.products).sum().item())


def _project(route: _Route, phases) -> np.ndarray:
    """The only projection code: the outcome probabilities of one setting,
    in outcome order, from its k checked phases."""
    factors = np.exp(np.array(phases, dtype=np.float64)[:, None] * _EXPONENTS)  # (k, 2): (1, z_j)
    monomials = factors[0]
    for factor in factors[1:]:
        monomials = (monomials[:, None] * factor).reshape(-1)
    amplitudes = monomials @ route.coefficients
    # hypot rather than np.abs or amplitude * conj: those round differently,
    # and the threshold study prints sums of these values in full.
    return np.square(np.hypot(amplitudes.real, amplitudes.imag))


def joint_probability_eventready(outcome: Outcome, setting: PhaseSetting) -> float:
    """Conditioned pair probability by eigenstate projection."""
    _require(2, setting, outcome)
    table = _setting_table(2, (setting.phi_a, setting.phi_b))
    return table.probabilities[_COLUMNS[outcome.a, outcome.b, None]]


def joint_probability_eventready_closed_form(outcome: Outcome, setting: PhaseSetting) -> float:
    """(1 + A*B*sin(phi_a+phi_b))/4."""
    _require(2, setting, outcome)
    return (1.0 + outcome.product() * math.sin(setting.phase_sum())) / 4.0


def correlation_qm2(setting: PhaseSetting) -> float:
    """Expectation of the A*B product in the event-ready configuration."""
    _require(2, setting)
    return _setting_table(2, (setting.phi_a, setting.phi_b)).correlation


def correlations(settings) -> list[float]:
    """Quantum correlation of each setting, projected setting by setting.

    All settings are three-analyzer (``correlation_qm3``) or all are
    event-ready (``correlation_qm2``)."""
    if not settings:
        raise ValidationError("correlations needs at least one setting")
    k = settings[0].analyzers
    if any(s.analyzers != k for s in settings):
        raise ValidationError("settings mix three-analyzer and event-ready configurations")
    return [_setting_table(k, (s.phi_a, s.phi_b, s.phi_c)[:k]).correlation for s in settings]
