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
eigenstates.  The labelled states below define the physics; the projection
itself runs on fixed dense arrays derived from them once, with one
``einsum`` giving all 2**k outcome probabilities of N settings.
Closed-form counterparts are provided separately so tests can confront the
two routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StructureError, ValidationError
from .hilbert import StateVector, TensorSpace, inner

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

PATH1 = ("path1", ("u", "d"))
POL1 = ("pol1", ("H", "V"))
POL2 = ("pol2", ("H", "V"))
# Exits behind the right PBS in event-ready operation: "a" collects
# transmitted H (the role of "d" above), "b" collects reflected V ("u").
PATH1_EVENTREADY = ("path1", ("a", "b"))

PAIR_SPACE = TensorSpace((POL1, POL2))
TRIPLE_SPACE = TensorSpace((PATH1, POL1, POL2))
EVENTREADY_SPACE = TensorSpace((POL1, PATH1_EVENTREADY))

_PATH_SPACE = TensorSpace((PATH1,))
_POL1_SPACE = TensorSpace((POL1,))
_POL2_SPACE = TensorSpace((POL2,))
_PATH_EVENTREADY_SPACE = TensorSpace((PATH1_EVENTREADY,))

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
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")

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


@dataclass(frozen=True)
class DichotomicObservable:
    """A +-1-valued analyzer: a phase plus its two orthonormal eigenstates."""

    kind: str
    phase: float
    plus: StateVector
    minus: StateVector

    def __post_init__(self):
        if not math.isclose(self.plus.norm(), 1.0, abs_tol=1e-12):
            raise ValidationError(f"{self.kind}: +1 eigenstate not normalized")
        if not math.isclose(self.minus.norm(), 1.0, abs_tol=1e-12):
            raise ValidationError(f"{self.kind}: -1 eigenstate not normalized")
        if abs(inner(self.plus, self.minus)) > 1e-12:
            raise ValidationError(f"{self.kind}: eigenstates not orthogonal")

    def eigenstate(self, sign: int) -> StateVector:
        if sign == +1:
            return self.plus
        if sign == -1:
            return self.minus
        raise ValidationError(f"eigenvalue sign must be +1 or -1, got {sign!r}")


def prepare_initial() -> StateVector:
    """Polarization state of the emitted pair, (|V H> + |H V>)/sqrt(2) over
    (pol1, pol2).  The photons' propagation directions are fixed product
    factors and carry no slot."""
    return StateVector.from_terms(
        PAIR_SPACE,
        {("V", "H"): _INV_SQRT2, ("H", "V"): _INV_SQRT2},
    )


def apply_pbs(state: StateVector) -> StateVector:
    """Route photon 1 through the PBS: V reflects into u, H transmits into d.

    Takes a (pol1, pol2) state and returns the path-entangled
    (path1, pol1, pol2) state."""
    if state.space != PAIR_SPACE:
        raise StructureError("apply_pbs expects a state over (pol1, pol2)")
    terms: dict[tuple[str, ...], complex] = {}
    for label in PAIR_SPACE.labels():
        amp = state.amplitude(label)
        if amp == 0:
            continue
        pol1, pol2 = label
        path = "u" if pol1 == "V" else "d"
        terms[(path, pol1, pol2)] = amp
    return StateVector.from_terms(TRIPLE_SPACE, terms)


def ghz_state() -> StateVector:
    """Path-entangled three-factor state behind the PBS."""
    return apply_pbs(prepare_initial())


def _check_phase(phase: float):
    if not math.isfinite(phase):
        raise ValidationError(f"phase must be finite, got {phase!r}")


def _check_sign(sign: int):
    if sign not in (-1, +1):
        raise ValidationError(f"eigenvalue sign must be +1 or -1, got {sign!r}")


def eigenstate_a(phase: float, sign: int) -> StateVector:
    """Beam-splitter eigenstate (i|d> + sign*e^{i phase}|u>)/sqrt(2) on the
    u/d path factor."""
    _check_phase(phase)
    _check_sign(sign)
    return StateVector.from_terms(
        _PATH_SPACE,
        {("u",): sign * cmath.exp(1j * phase) * _INV_SQRT2, ("d",): 1j * _INV_SQRT2},
    )


def eigenstate_b(phase: float, sign: int) -> StateVector:
    """Polarization eigenstate (|H> + sign*e^{i phase}|V>)/sqrt(2) of the
    photon-1 analyzer (plate fast axis along V)."""
    _check_phase(phase)
    _check_sign(sign)
    return StateVector.from_terms(
        _POL1_SPACE,
        {("H",): _INV_SQRT2, ("V",): sign * cmath.exp(1j * phase) * _INV_SQRT2},
    )


def eigenstate_c(phase: float, sign: int) -> StateVector:
    """Polarization eigenstate (|V> + sign*e^{i phase}|H>)/sqrt(2) of the
    photon-2 analyzer (plate fast axis along H)."""
    _check_phase(phase)
    _check_sign(sign)
    return StateVector.from_terms(
        _POL2_SPACE,
        {("V",): _INV_SQRT2, ("H",): sign * cmath.exp(1j * phase) * _INV_SQRT2},
    )


def eigenstate_a_eventready(phase: float, sign: int) -> StateVector:
    """Beam-splitter eigenstate on the relabeled a/b exits:
    (i|a> + sign*e^{i phase}|b>)/sqrt(2)."""
    _check_phase(phase)
    _check_sign(sign)
    return StateVector.from_terms(
        _PATH_EVENTREADY_SPACE,
        {("b",): sign * cmath.exp(1j * phase) * _INV_SQRT2, ("a",): 1j * _INV_SQRT2},
    )


def observable_a(phase: float) -> DichotomicObservable:
    return DichotomicObservable(
        "path-A", phase, eigenstate_a(phase, +1), eigenstate_a(phase, -1)
    )


def observable_b(phase: float) -> DichotomicObservable:
    return DichotomicObservable(
        "polarization-B", phase, eigenstate_b(phase, +1), eigenstate_b(phase, -1)
    )


def observable_c(phase: float) -> DichotomicObservable:
    return DichotomicObservable(
        "polarization-C", phase, eigenstate_c(phase, +1), eigenstate_c(phase, -1)
    )


def _require_triple(setting: PhaseSetting):
    if setting.phi_c is None:
        raise ValidationError("this operation needs all three phases set")


def joint_probability(outcome: Outcome, setting: PhaseSetting) -> float:
    """Triple-coincidence probability by explicit eigenstate projection."""
    _require_triple(setting)
    if outcome.c is None:
        raise ValidationError("triple-coincidence outcome needs a C component")
    table = _outcome_table(3, [[setting.phi_a, setting.phi_b, setting.phi_c]])
    return float(table[0, _outcome_index(outcome)])


def joint_probability_closed_form(outcome: Outcome, setting: PhaseSetting) -> float:
    """(1 + A*B*C*sin(phi_a+phi_b+phi_c))/8, the sinusoid the projection
    route must reproduce."""
    _require_triple(setting)
    if outcome.c is None:
        raise ValidationError("triple-coincidence outcome needs a C component")
    return (1.0 + outcome.product() * math.sin(setting.phase_sum())) / 8.0


def correlation_qm3(setting: PhaseSetting) -> float:
    """Expectation of the A*B*C product, summed over all eight outcomes."""
    _require_triple(setting)
    return _correlations(3, [[setting.phi_a, setting.phi_b, setting.phi_c]])[0]


def eventready_state() -> StateVector:
    """Photon-1 state heralded by C = +1 at phi_c = 0:
    (|V b> + |H a>)/sqrt(2) over (pol1, path1)."""
    return StateVector.from_terms(
        EVENTREADY_SPACE,
        {("V", "b"): _INV_SQRT2, ("H", "a"): _INV_SQRT2},
    )


def conditional_state_after_trigger() -> StateVector:
    """Event-ready state computed the long way: project the full model on
    the trigger eigenstate, renormalize, and relabel the exits (u -> b,
    d -> a).  Must match :func:`eventready_state` within 1e-12."""
    full = ghz_state()
    trigger = eigenstate_c(0.0, +1)
    terms: dict[tuple[str, ...], complex] = {}
    for pol1 in POL1[1]:
        for path in PATH1[1]:
            amp = 0.0 + 0.0j
            for pol2 in POL2[1]:
                amp += trigger.amplitude((pol2,)).conjugate() * full.amplitude(
                    (path, pol1, pol2)
                )
            if amp != 0:
                terms[(pol1, "b" if path == "u" else "a")] = amp
    return StateVector.from_terms(EVENTREADY_SPACE, terms).normalized()


class _Route(NamedTuple):
    """Dense projection data for k analyzers."""

    state: np.ndarray  # one axis per analyzer, in the order (A, B[, C])
    fixed: np.ndarray  # (k, 2, 2): each bra's phase-free component
    phased: np.ndarray  # (k, 2, 2): sign/sqrt(2) where a bra carries e^{-i phase}
    subscripts: str
    products: np.ndarray  # A*B(*C) of each outcome, in outcome order


def _route(state, analyzers, subscripts: str, outcomes) -> _Route:
    """``analyzers`` gives, per axis of ``state``, the basis index of the
    eigenstate component sign * e^{i phase}/sqrt(2) and the other component
    times sqrt(2), as the ``eigenstate_*`` constructors write them."""
    fixed = np.zeros((len(analyzers), 2, 2), dtype=np.complex128)
    phased = np.zeros((len(analyzers), 2, 2))
    for j, (index, other) in enumerate(analyzers):
        fixed[j, :, 1 - index] = np.conj(other * _INV_SQRT2)
        phased[j, :, index] = (_INV_SQRT2, -_INV_SQRT2)
    products = np.array([o.product() for o in outcomes], dtype=np.float64)
    return _Route(state, fixed, phased, subscripts, products)


# Built once from the labelled derivation.  The event-ready state's slots
# are (pol1, path1); transposing puts the A axis first.
_ROUTES = {
    3: _route(
        ghz_state().amplitudes.reshape(2, 2, 2),  # (path u/d, pol1 H/V, pol2 H/V)
        ((0, 1j), (1, 1.0), (0, 1.0)),
        "nax,nby,ncz,xyz->nabc",
        TRIPLE_OUTCOMES,
    ),
    2: _route(
        eventready_state().amplitudes.reshape(2, 2).T,  # (path a/b, pol1 H/V)
        ((1, 1j), (1, 1.0)),
        "nax,nby,xy->nab",
        PAIR_OUTCOMES,
    ),
}


def _bras(n_analyzers: int, phases) -> np.ndarray:
    """Conjugated analyzer eigenstates at N settings, shape (N, k, 2, 2):
    setting, analyzer (A, B[, C]), sign (+1, -1), basis index on that
    analyzer's axis of the state."""
    route = _ROUTES.get(n_analyzers)
    if route is None:
        raise ValidationError(f"the number of analyzers must be 2 or 3, got {n_analyzers!r}")
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 2 or phases.shape[0] < 1 or phases.shape[1] != n_analyzers:
        raise ValidationError(
            f"phases must have shape (N >= 1, {n_analyzers}), got {phases.shape}"
        )
    if not np.isfinite(phases).all():
        raise ValidationError("phases must be finite")
    return route.fixed + route.phased * np.exp(-1j * phases)[:, :, None, None]


def _outcome_table(n_analyzers: int, phases) -> np.ndarray:
    """Born probabilities of all 2**k outcomes at N settings.

    ``phases`` has shape (N, k) with columns (phi_a, phi_b[, phi_c]); the
    result has shape (N, 2**k) with columns in ``TRIPLE_OUTCOMES`` (k = 3)
    or ``PAIR_OUTCOMES`` (k = 2) order.  This is the only projection code:
    every probability and correlation of this module reads its table."""
    bras = _bras(n_analyzers, phases)
    route = _ROUTES[n_analyzers]
    amplitudes = np.einsum(
        route.subscripts, *(bras[:, j] for j in range(n_analyzers)), route.state
    )
    # hypot rather than np.abs or amplitude * conj: those round differently,
    # and the threshold study prints sums of these values in full.
    return np.square(np.hypot(amplitudes.real, amplitudes.imag)).reshape(len(bras), -1)


def _outcome_index(outcome: Outcome) -> int:
    """Position of ``outcome`` in ``TRIPLE_OUTCOMES`` or ``PAIR_OUTCOMES``."""
    index = 0
    for sign in (outcome.a, outcome.b, outcome.c):
        if sign is not None:
            index = 2 * index + (sign == -1)
    return index


def _correlations(n_analyzers: int, phases) -> list[float]:
    return (_outcome_table(n_analyzers, phases) @ _ROUTES[n_analyzers].products).tolist()


def _require_pair(setting: PhaseSetting):
    if setting.phi_c is not None:
        raise ValidationError("event-ready settings carry no phi_c")


def joint_probability_eventready(outcome: Outcome, setting: PhaseSetting) -> float:
    """Conditioned pair probability by eigenstate projection."""
    _require_pair(setting)
    if outcome.c is not None:
        raise ValidationError("event-ready outcomes carry no C component")
    table = _outcome_table(2, [[setting.phi_a, setting.phi_b]])
    return float(table[0, _outcome_index(outcome)])


def joint_probability_eventready_closed_form(outcome: Outcome, setting: PhaseSetting) -> float:
    """(1 + A*B*sin(phi_a+phi_b))/4."""
    _require_pair(setting)
    if outcome.c is not None:
        raise ValidationError("event-ready outcomes carry no C component")
    return (1.0 + outcome.a * outcome.b * math.sin(setting.phi_a + setting.phi_b)) / 4.0


def correlation_qm2(setting: PhaseSetting) -> float:
    """Expectation of the A*B product in the event-ready configuration."""
    _require_pair(setting)
    return _correlations(2, [[setting.phi_a, setting.phi_b]])[0]


def correlations(settings) -> list[float]:
    """Quantum correlation of each setting, from one batched projection.

    All settings are three-analyzer (``correlation_qm3``) or all are
    event-ready (``correlation_qm2``)."""
    if not settings:
        raise ValidationError("correlations needs at least one setting")
    if all(s.phi_c is not None for s in settings):
        return _correlations(3, [[s.phi_a, s.phi_b, s.phi_c] for s in settings])
    if all(s.phi_c is None for s in settings):
        return _correlations(2, [[s.phi_a, s.phi_b] for s in settings])
    raise ValidationError("settings mix three-analyzer and event-ready configurations")
