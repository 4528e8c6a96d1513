import cmath
import math

import numpy as np
import pytest

from nchvsim.errors import ValidationError
from nchvsim.experiment import (
    _GHZ,
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    Outcome,
    PhaseSetting,
    _bras,
    conditional_state_after_trigger,
    correlation_qm2,
    correlation_qm3,
    eventready_state,
    joint_probability,
    joint_probability_closed_form,
    joint_probability_eventready,
    joint_probability_eventready_closed_form,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def kets(phases):
    """Analyzer eigenstates at one setting, shape (k, 2, 2): analyzer
    (A, B[, C]), sign (+1, -1), basis index on that analyzer's axis."""
    return _bras(len(phases), [phases]).conj()[0]


def test_pbs_routes_v_up_h_down():
    # emitted pair (|V H> + |H V>)/sqrt(2); index 0 is u or H, 1 is d or V
    pair = np.array([[0.0, 1.0], [1.0, 0.0]]) * INV_SQRT2
    routed = np.zeros((2, 2, 2), dtype=complex)
    for pol1 in (0, 1):
        path = 0 if pol1 == 1 else 1  # V reflects into u, H transmits into d
        routed[path, pol1] = pair[pol1]
    assert _GHZ.shape == (2, 2, 2)
    assert np.max(np.abs(_GHZ - routed)) <= 1e-15
    assert _GHZ[0, 1, 0] == pytest.approx(INV_SQRT2, abs=1e-15)  # |u V H>
    assert _GHZ[1, 0, 1] == pytest.approx(INV_SQRT2, abs=1e-15)  # |d H V>
    assert np.count_nonzero(_GHZ) == 2
    assert math.isclose(np.linalg.norm(_GHZ), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("sign", [+1, -1])
def test_eigenstate_a_components(sign):
    u, d = kets([0.0, 0.0, 0.0])[0, (+1, -1).index(sign)]
    assert u == pytest.approx(sign * INV_SQRT2, abs=1e-15)
    assert d == pytest.approx(1j * INV_SQRT2, abs=1e-15)


def test_eigenstate_b_phase_pi():
    h, v = kets([0.0, math.pi, 0.0])[1, 0]
    assert h == pytest.approx(INV_SQRT2, abs=1e-15)
    assert v == pytest.approx(-INV_SQRT2, abs=1e-12)


def test_eigenstate_c_quarter_phase():
    h, v = kets([0.0, 0.0, math.pi / 2.0])[2, 0]
    assert v == pytest.approx(INV_SQRT2, abs=1e-15)
    assert h == pytest.approx(1j * INV_SQRT2, abs=1e-12)


@pytest.mark.parametrize(
    "k, analyzer",
    [(3, 0), (3, 1), (3, 2), (2, 0)],
    ids=["eigenstate_a", "eigenstate_b", "eigenstate_c", "eigenstate_a_eventready"],
)
def test_eigenstates_orthonormal_at_random_phases(k, analyzer):
    rng = np.random.default_rng(21)
    phases = rng.uniform(-2 * math.pi, 2 * math.pi, size=(20, k))
    for plus, minus in _bras(k, phases).conj()[:, analyzer]:
        assert math.isclose(np.linalg.norm(plus), 1.0, abs_tol=1e-12)
        assert math.isclose(np.linalg.norm(minus), 1.0, abs_tol=1e-12)
        assert abs(np.vdot(plus, minus)) < 1e-12


def test_joint_probability_known_values():
    setting = PhaseSetting(math.pi / 2.0, 0.0, 0.0)
    # sin = 1: outcomes with product +1 share the weight equally
    assert joint_probability(Outcome(+1, +1, +1), setting) == pytest.approx(0.25, abs=1e-12)
    assert joint_probability(Outcome(+1, +1, -1), setting) == pytest.approx(0.0, abs=1e-12)
    assert joint_probability(Outcome(-1, -1, +1), setting) == pytest.approx(0.25, abs=1e-12)


def test_joint_probability_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        setting = PhaseSetting(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3))
        for outcome in TRIPLE_OUTCOMES:
            assert joint_probability(outcome, setting) == pytest.approx(
                joint_probability_closed_form(outcome, setting), abs=1e-12
            )


def test_joint_probability_completeness_and_marginals():
    rng = np.random.default_rng(6)
    for _ in range(50):
        setting = PhaseSetting(*rng.uniform(-math.pi, math.pi, size=3))
        probs = {o: joint_probability(o, setting) for o in TRIPLE_OUTCOMES}
        assert math.isclose(sum(probs.values()), 1.0, abs_tol=1e-12)
        # single-analyzer marginals stay uniform regardless of phases
        for pick in "abc":
            marginal = sum(p for o, p in probs.items() if getattr(o, pick) == +1)
            assert math.isclose(marginal, 0.5, abs_tol=1e-12)


def test_correlation_qm3_is_sine_of_phase_sum():
    assert correlation_qm3(PhaseSetting(math.pi / 2, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert correlation_qm3(PhaseSetting(0.0, math.pi / 2, 0.0)) == pytest.approx(1.0, abs=1e-12)
    three_quarter = PhaseSetting(math.pi / 2, math.pi / 2, math.pi / 2)
    assert correlation_qm3(three_quarter) == pytest.approx(-1.0, abs=1e-12)
    assert correlation_qm3(PhaseSetting(0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_correlation_periodicity():
    rng = np.random.default_rng(8)
    for _ in range(20):
        phases = rng.uniform(-math.pi, math.pi, size=3)
        shifted = PhaseSetting(phases[0] + 2 * math.pi, phases[1], phases[2] - 2 * math.pi)
        assert correlation_qm3(PhaseSetting(*phases)) == pytest.approx(
            correlation_qm3(shifted), abs=1e-12
        )


def test_eventready_state_amplitudes():
    h_a, h_b, v_a, v_b = eventready_state()
    assert v_b == pytest.approx(INV_SQRT2, abs=1e-15)
    assert h_a == pytest.approx(INV_SQRT2, abs=1e-15)
    assert h_b == 0.0
    assert v_a == 0.0


def test_conditional_state_matches_direct_construction():
    direct = eventready_state()
    conditioned = conditional_state_after_trigger()
    assert conditioned.shape == direct.shape == (4,)
    assert conditioned.dtype == direct.dtype == np.complex128
    assert np.max(np.abs(conditioned - direct)) < 1e-12


def test_eventready_joint_probability_matches_closed_form():
    rng = np.random.default_rng(15)
    for _ in range(200):
        setting = PhaseSetting(*rng.uniform(-2 * math.pi, 2 * math.pi, size=2))
        total = 0.0
        for outcome in PAIR_OUTCOMES:
            p = joint_probability_eventready(outcome, setting)
            assert p == pytest.approx(
                joint_probability_eventready_closed_form(outcome, setting), abs=1e-12
            )
            total += p
        assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_correlation_qm2_is_sine_of_phase_sum():
    assert correlation_qm2(PhaseSetting(math.pi / 2, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert correlation_qm2(PhaseSetting(math.pi / 4, math.pi / 4)) == pytest.approx(1.0, abs=1e-12)
    assert correlation_qm2(PhaseSetting(-math.pi / 2, 0.0)) == pytest.approx(-1.0, abs=1e-12)


def test_chsh_combination_reaches_quantum_maximum():
    quarter = math.pi / 4.0
    half = math.pi / 2.0
    s = (
        correlation_qm2(PhaseSetting(quarter, 0.0))
        + correlation_qm2(PhaseSetting(quarter, half))
        + correlation_qm2(PhaseSetting(-quarter, half))
        - correlation_qm2(PhaseSetting(-quarter, 0.0))
    )
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_phase_setting_canonicalization():
    setting = PhaseSetting(3.0 * math.pi, -math.pi, math.pi)
    canon = setting.canonical()
    assert canon.phi_a == pytest.approx(-math.pi, abs=1e-12)
    assert canon.phi_b == pytest.approx(-math.pi, abs=1e-12)
    assert canon.phi_c == pytest.approx(-math.pi, abs=1e-12)
    assert -math.pi <= canon.phi_a < math.pi
    # canonicalization never moves the physics
    assert correlation_qm3(setting) == pytest.approx(correlation_qm3(canon), abs=1e-12)


def test_outcome_and_setting_validation():
    with pytest.raises(ValidationError):
        Outcome(0, 1, 1)
    with pytest.raises(ValidationError):
        PhaseSetting(math.nan, 0.0, 0.0)
    with pytest.raises(ValidationError):
        joint_probability(Outcome(+1, +1), PhaseSetting(0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        joint_probability(Outcome(+1, +1, +1), PhaseSetting(0.0, 0.0))
    with pytest.raises(ValidationError):
        joint_probability_eventready(Outcome(+1, +1, +1), PhaseSetting(0.0, 0.0))


def test_eigenstate_phase_convention():
    # the +1 eigenstate picks up exactly e^{i phase} on its second component
    phase = 1.234
    h, v = kets([0.0, phase, 0.0])[1, 0]
    ratio = v / h
    assert cmath.isclose(ratio, cmath.exp(1j * phase), abs_tol=1e-12)
