"""Acceptance checks for the full toolkit.

Each test covers one numbered criterion and prints a single PASS or FAIL
line when it finishes.  Run with ``pytest -s tests/test_acceptance.py`` to
see the summary lines alongside the pytest output.
"""

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from nchvsim.experiment import (
    PAIR_OUTCOMES,
    TRIPLE_OUTCOMES,
    PhaseSetting,
    correlation_qm2,
    correlation_qm3,
    joint_probability,
    joint_probability_closed_form,
    joint_probability_eventready,
    joint_probability_eventready_closed_form,
)
from nchvsim.montecarlo import (
    NoiseModel,
    estimate_correlation,
    sample_counts,
)
from nchvsim.nchv import (
    PhaseGrid,
    chsh_expression,
    classical_bound,
    ghz_forcing,
    ghz_forcing_enumerated,
    mermin_expression,
)
from nchvsim.reports import (
    RunConfig,
    TESTS,
    replay,
    report_json_text,
    run_exp1_report,
    run_exp2_report,
    scan_csv_text,
    scan_phase,
    threshold_study,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

HALF_PI = math.pi / 2.0

PUBLISHED_SETTINGS = (
    PhaseSetting(0.46 * math.pi, 0.0, 0.0),
    PhaseSetting(0.01 * math.pi, HALF_PI, 0.0),
    PhaseSetting(0.01 * math.pi, 0.0, HALF_PI),
    PhaseSetting(0.46 * math.pi, HALF_PI, HALF_PI),
)


def criterion(number, label):
    """Print one summary line per criterion, whatever the test outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {label}")
                raise
            print(f"criterion {number}: PASS - {label}")

        return run

    return wrap


@criterion(1, "closed-form probabilities and correlations match the projector route")
def test_criterion_closed_form_agreement():
    rng = np.random.default_rng(20260816)
    for _ in range(1000):
        phis = rng.uniform(-math.pi, math.pi, size=3)
        triple = PhaseSetting(float(phis[0]), float(phis[1]), float(phis[2]))
        for outcome in TRIPLE_OUTCOMES:
            direct = joint_probability(outcome, triple)
            closed = joint_probability_closed_form(outcome, triple)
            assert abs(direct - closed) <= 1e-12
        assert abs(correlation_qm3(triple) - math.sin(float(phis.sum()))) <= 1e-12

        pair = PhaseSetting(float(phis[0]), float(phis[1]))
        for outcome in PAIR_OUTCOMES:
            direct = joint_probability_eventready(outcome, pair)
            closed = joint_probability_eventready_closed_form(outcome, pair)
            assert abs(direct - closed) <= 1e-12
        expected = math.sin(float(phis[0] + phis[1]))
        assert abs(correlation_qm2(pair) - expected) <= 1e-12


@criterion(2, "perfect correlations force a value the quantum state contradicts")
def test_criterion_ghz_contradiction():
    unit_settings = (
        PhaseSetting(HALF_PI, 0.0, 0.0),
        PhaseSetting(0.0, HALF_PI, 0.0),
        PhaseSetting(0.0, 0.0, HALF_PI),
    )
    for setting in unit_settings:
        assert abs(correlation_qm3(setting) - 1.0) <= 1e-12
    clash = PhaseSetting(HALF_PI, HALF_PI, HALF_PI)
    assert abs(correlation_qm3(clash) + 1.0) <= 1e-12

    forced = ghz_forcing(1, 1, 1)
    assert forced == 1
    for c1, c2, c3 in itertools.product((1, -1), repeat=3):
        assert ghz_forcing_enumerated(c1, c2, c3) == ghz_forcing(c1, c2, c3)

    # The deterministic model demands +1 where the state delivers -1.
    assert forced * correlation_qm3(clash) < 0


@criterion(3, "classical bounds are exactly 2 and the quantum CHSH scan reaches 2*sqrt(2)")
def test_criterion_bounds_and_quantum_maximum():
    pair_grid = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI))
    assert classical_bound(chsh_expression(), pair_grid) == 2.0
    triple_grid = PhaseGrid((0.0, HALF_PI), (0.0, HALF_PI), (0.0, HALF_PI))
    assert classical_bound(mermin_expression(), triple_grid) == 2.0

    # S separates into a phi_a part and a phi_a' part, so a single
    # 10^4-point sweep of each analyzer phase covers the full square.
    phis = np.linspace(-math.pi, math.pi, 10000)
    best_unprimed = -np.inf
    best_primed = -np.inf
    for phi in phis:
        e_low = correlation_qm2(PhaseSetting(float(phi), 0.0))
        e_high = correlation_qm2(PhaseSetting(float(phi), HALF_PI))
        best_unprimed = max(best_unprimed, e_low + e_high)
        best_primed = max(best_primed, e_high - e_low)
    scanned_max = best_unprimed + best_primed
    assert abs(scanned_max - TESTS["exp2"].quantum_maximum) <= 1e-3


@criterion(4, "replaying the published correlations reproduces the quoted numbers")
def test_criterion_replay_published_values():
    report1 = replay(FIXTURES / "exp1_reference.csv")
    assert abs(report1.derived["nchv_lower_bound"] - 0.666) <= 1e-9
    assert 0.0080 <= report1.derived["nchv_lower_bound_sigma"] <= 0.0090
    assert abs(report1.derived["fourth_value"] + 0.885) <= 1e-9
    assert abs(report1.derived["inequality_value"] + 3.551) <= 1e-9

    report2 = replay(FIXTURES / "exp2_reference.csv")
    assert abs(report2.derived["inequality_value"] - 2.595) <= 1e-9
    assert 0.015 <= report2.derived["inequality_sigma"] <= 0.017


@criterion(5, "estimator means and declared sigmas calibrate at the published settings")
def test_criterion_estimator_calibration():
    noise = NoiseModel(visibility=0.885)
    reference_n = 5000
    formula_sigma = math.sqrt((1.0 - 0.885**2) / reference_n)
    ratio = max(0.005, formula_sigma) / min(0.005, formula_sigma)
    assert ratio <= 1.5

    for index, setting in enumerate(PUBLISHED_SETTINGS):
        values = []
        declared = []
        for k in range(200):
            counts = sample_counts(setting, noise, trials=10000, seed=1000 * index + k)
            est = estimate_correlation(counts)
            values.append(est.value)
            declared.append(est.sigma)
        values = np.asarray(values)
        expected = 0.885 * math.sin(setting.phase_sum())
        assert abs(values.mean() - expected) <= 0.01
        empirical = values.std(ddof=1)
        mean_declared = float(np.mean(declared))
        assert abs(empirical - mean_declared) <= 0.15 * mean_declared


@criterion(6, "simulated runs at realistic visibility violate both inequalities")
def test_criterion_simulated_significance():
    config1 = RunConfig(
        experiment="exp1",
        noise=NoiseModel(visibility=0.885),
        trials_per_setting=10000,
        seed=7,
        phi_a=HALF_PI,
        phi_a_prime=0.0,
    )
    report1 = run_exp1_report(config1)
    assert report1.verdict["violated"]
    assert report1.derived["significance"] > 50.0

    config2 = RunConfig(
        experiment="exp2",
        noise=NoiseModel(visibility=0.92),
        trials_per_setting=5000,
        seed=7,
        phi_a=math.pi / 4.0,
        phi_a_prime=-math.pi / 4.0,
    )
    report2 = run_exp2_report(config2)
    assert report2.verdict["violated"]
    assert report2.derived["significance"] > 10.0


@criterion(7, "visibility thresholds land at 0.5 and 0.7071")
def test_criterion_visibility_thresholds():
    mermin = threshold_study("mermin", resolution=1e-4)
    assert abs(mermin["threshold_visibility"] - 0.5) <= 1e-3
    chsh = threshold_study("chsh", resolution=1e-4)
    assert abs(chsh["threshold_visibility"] - 0.7071) <= 1e-3


@criterion(8, "an 8 percent detection efficiency leaves the estimates unchanged")
def test_criterion_fair_sampling():
    bright = NoiseModel(visibility=0.885, efficiency=1.0)
    dim = NoiseModel(visibility=0.885, efficiency=0.08)
    for index, setting in enumerate(PUBLISHED_SETTINGS):
        full = estimate_correlation(
            sample_counts(setting, bright, trials=10000, seed=50 + index)
        )
        thinned = estimate_correlation(
            sample_counts(setting, dim, trials=125000, seed=150 + index)
        )
        gap = abs(full.value - thinned.value)
        assert gap <= 4.0 * math.hypot(full.sigma, thinned.sigma)


@criterion(9, "identical configurations reproduce byte-identical CSV and JSON output")
def test_criterion_byte_reproducibility(tmp_path):
    def scan_config(seed):
        return RunConfig(
            experiment="exp1",
            noise=NoiseModel(visibility=0.9),
            trials_per_setting=2000,
            seed=seed,
            phi_a=0.0,
            phi_b_values=(0.0,),
            phi_c_values=(0.0,),
            sweep=(-math.pi, math.pi, 9),
        )

    def write_scan(path, seed):
        # The same open() arguments as cli.main's
        path.write_text(scan_csv_text(scan_phase(scan_config(seed))),
                        encoding="utf-8", newline="")

    first_csv = tmp_path / "scan_a.csv"
    second_csv = tmp_path / "scan_b.csv"
    write_scan(first_csv, 42)
    write_scan(second_csv, 42)
    assert first_csv.read_bytes() == second_csv.read_bytes()
    other_csv = tmp_path / "scan_c.csv"
    write_scan(other_csv, 43)
    assert other_csv.read_bytes() != first_csv.read_bytes()

    def report_config(seed):
        return RunConfig(
            experiment="exp2",
            noise=NoiseModel(visibility=0.92),
            trials_per_setting=2000,
            seed=seed,
            phi_a=math.pi / 4.0,
            phi_a_prime=-math.pi / 4.0,
        )

    text_a = report_json_text(run_exp2_report(report_config(42)))
    text_b = report_json_text(run_exp2_report(report_config(42)))
    assert text_a.encode("utf-8") == text_b.encode("utf-8")
    text_c = report_json_text(run_exp2_report(report_config(43)))
    assert text_c != text_a
    # The payload must stay strict JSON with the fixed top-level sections.
    assert list(json.loads(text_a)) == ["config", "derived", "estimates", "verdict"]
