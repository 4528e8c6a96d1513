import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nchvsim.errors import EstimationError, FixtureParseError, ValidationError
from nchvsim.experiment import PhaseSetting, correlation_qm2, correlation_qm3
from nchvsim.montecarlo import NoiseModel, propagate_error
from nchvsim.nchv import (
    PhaseGrid,
    chsh_expression,
    classical_bound,
    expression_value,
    mermin_expression,
    nchv_lower_bound,
)
from nchvsim.reports import (
    _grid_threshold,
    Report,
    RunConfig,
    SCAN_CSV_HEADER,
    render_report_text,
    replay,
    report_json_text,
    run_exp1_report,
    run_exp2_report,
    scan_csv_text,
    scan_phase,
    threshold_study,
    write_report_json,
    write_scan_csv,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HALF_PI = math.pi / 2.0


def exp1_config(**overrides):
    defaults = dict(
        experiment="exp1",
        noise=NoiseModel(visibility=0.885),
        trials_per_setting=10_000,
        seed=2024,
        phi_a=HALF_PI,
        phi_a_prime=0.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def exp2_config(**overrides):
    defaults = dict(
        experiment="exp2",
        noise=NoiseModel(visibility=0.92),
        trials_per_setting=5_000,
        seed=2024,
        phi_a=math.pi / 4.0,
        phi_a_prime=-math.pi / 4.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_scan_rows_follow_the_analytic_fringe():
    config = RunConfig(
        experiment="exp1",
        noise=NoiseModel(),
        trials_per_setting=4000,
        seed=5,
        phi_a=0.0,
        phi_b_values=(0.0,),
        phi_c_values=(0.0,),
        sweep=(-math.pi, math.pi, 9),
    )
    rows = scan_phase(config)
    assert len(rows) == 9
    for row in rows:
        assert row.e_analytic == pytest.approx(
            math.sin(row.phi_a + row.phi_b + row.phi_c), abs=1e-12
        )
        assert abs(row.e_est - row.e_analytic) <= 5.0 * max(row.sigma, 1e-3)


def test_scan_fringe_shifts_by_pi_between_analyzer_settings():
    config = RunConfig(
        experiment="exp1",
        noise=NoiseModel(),
        trials_per_setting=2000,
        seed=6,
        phi_a=0.0,
        phi_b_values=(0.0, HALF_PI),
        phi_c_values=(0.0, HALF_PI),
        sweep=(-math.pi, math.pi * 0.75, 8),
    )
    rows = scan_phase(config)
    assert len(rows) == 32
    base = [r for r in rows if r.phi_b == 0.0 and r.phi_c == 0.0]
    shifted = [r for r in rows if r.phi_b != 0.0 and r.phi_c != 0.0]
    for lo, hi in zip(base, shifted):
        assert hi.e_analytic == pytest.approx(-lo.e_analytic, abs=1e-12)


def test_scan_exp2_has_blank_phi_c():
    config = RunConfig(
        experiment="exp2",
        noise=NoiseModel(),
        trials_per_setting=1000,
        seed=7,
        phi_a=0.0,
        phi_b_values=(0.0,),
        phi_c_values=(),
        sweep=(0.0, math.pi, 4),
    )
    rows = scan_phase(config)
    text = scan_csv_text(rows)
    lines = text.splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == ""
    assert text.endswith("\n")
    assert "\r" not in text


def test_scan_requires_sweep_and_consistent_phase_lists():
    with pytest.raises(ValidationError):
        scan_phase(exp1_config())
    with pytest.raises(ValidationError):
        scan_phase(
            RunConfig(
                experiment="exp1",
                noise=NoiseModel(),
                trials_per_setting=100,
                seed=1,
                phi_a=0.0,
                phi_c_values=(),
                sweep=(0.0, 1.0, 2),
            )
        )
    with pytest.raises(ValidationError):
        scan_phase(
            RunConfig(
                experiment="exp2",
                noise=NoiseModel(),
                trials_per_setting=100,
                seed=1,
                phi_a=0.0,
                phi_c_values=(0.0,),
                sweep=(0.0, 1.0, 2),
            )
        )


def test_scan_csv_bytes_reproduce(tmp_path):
    config = RunConfig(
        experiment="exp1",
        noise=NoiseModel(visibility=0.9, efficiency=0.5, background=0.01),
        trials_per_setting=3000,
        seed=123,
        phi_a=0.0,
        phi_b_values=(0.0, HALF_PI),
        phi_c_values=(0.0,),
        sweep=(-math.pi, math.pi, 11),
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_scan_csv(scan_phase(config), first)
    write_scan_csv(scan_phase(config), second)
    assert first.read_bytes() == second.read_bytes()
    other = scan_phase(
        RunConfig(
            experiment="exp1",
            noise=config.noise,
            trials_per_setting=3000,
            seed=124,
            phi_a=0.0,
            phi_b_values=(0.0, HALF_PI),
            phi_c_values=(0.0,),
            sweep=(-math.pi, math.pi, 11),
        )
    )
    assert scan_csv_text(other).encode() != first.read_bytes()


def test_exp1_report_at_reference_visibility():
    report = run_exp1_report(exp1_config())
    derived = report.derived
    assert derived["nchv_lower_bound"] == pytest.approx(3 * 0.885 - 2.0, abs=0.04)
    assert derived["nchv_lower_bound_sigma"] == pytest.approx(0.0114, abs=0.002)
    assert derived["fourth_value"] == pytest.approx(-0.885, abs=0.03)
    assert derived["classical_bound"] == 2.0
    assert derived["significance"] > 100.0
    assert report.verdict["violated"] is True
    # the bound and the measured fourth correlation sit far apart
    separation = derived["nchv_lower_bound"] - derived["fourth_value"]
    combined = math.hypot(
        derived["nchv_lower_bound_sigma"], derived["fourth_sigma"]
    )
    assert separation / combined > 100.0


def test_exp1_report_low_visibility_reports_no_violation():
    report = run_exp1_report(exp1_config(noise=NoiseModel(visibility=0.45)))
    assert abs(report.derived["inequality_value"]) < 2.0
    assert report.verdict["violated"] is False
    assert "satisfied" in report.verdict["summary"]


def test_exp1_report_significance_consistent_with_own_numbers():
    report = run_exp1_report(exp1_config())
    derived = report.derived
    recomputed = (abs(derived["inequality_value"]) - derived["classical_bound"]) / derived[
        "inequality_sigma"
    ]
    assert derived["significance"] == pytest.approx(recomputed, abs=1e-12)


def test_exp1_report_estimates_follow_analytic_prediction():
    report = run_exp1_report(exp1_config())
    for entry in report.estimates:
        assert entry["value"] == pytest.approx(entry["analytic"], abs=5 * entry["sigma"])
        assert entry["n"] > 0


def test_exp2_report_reaches_quantum_value():
    report = run_exp2_report(exp2_config(noise=NoiseModel(), trials_per_setting=20_000))
    assert report.derived["inequality_value"] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=0.03
    )
    assert report.derived["quantum_maximum"] == pytest.approx(2.0 * math.sqrt(2.0), abs=0.0)
    assert report.verdict["violated"] is True


def test_exp2_report_below_threshold_visibility():
    report = run_exp2_report(exp2_config(noise=NoiseModel(visibility=0.5)))
    assert report.verdict["violated"] is False


def test_exp2_report_significance_consistent_with_own_numbers():
    report = run_exp2_report(exp2_config())
    derived = report.derived
    recomputed = (abs(derived["inequality_value"]) - derived["classical_bound"]) / derived[
        "inequality_sigma"
    ]
    assert derived["significance"] == pytest.approx(recomputed, abs=1e-12)
    assert derived["significance"] > 10.0


def test_report_json_reproducible_and_well_formed(tmp_path):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    write_report_json(run_exp1_report(exp1_config()), first)
    write_report_json(run_exp1_report(exp1_config()), second)
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert sorted(payload.keys()) == ["config", "derived", "estimates", "verdict"]
    assert payload["config"]["seed"] == 2024


def test_wrong_experiment_rejected():
    with pytest.raises(ValidationError):
        run_exp1_report(exp2_config())
    with pytest.raises(ValidationError):
        run_exp2_report(exp1_config())
    with pytest.raises(ValidationError):
        RunConfig(
            experiment="exp3",
            noise=NoiseModel(),
            trials_per_setting=10,
            seed=1,
            phi_a=0.0,
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials_per_setting", 1.5),
        ("trials_per_setting", True),
        ("trials_per_setting", "10"),
        ("trials_per_setting", 0),
        ("seed", 1.5),
        ("seed", 1e30),
        ("seed", False),
        ("seed", -1),
    ],
)
def test_run_config_rejects_non_integer_trials_and_seed(field, value):
    with pytest.raises(ValidationError):
        exp1_config(**{field: value})


@pytest.mark.parametrize(
    "sweep",
    [
        (0.0, 1.0, 2.5),  # fractional step count
        (0.0, 1.0, 3.0),
        (0.0, 1.0, True),  # a bool is not a step count
        (0.0, 1.0, 0),
        (0.0, 1.0),  # not a triple
        (0.0, 1.0, 3, 4),
        [0.0, 1.0, 3],
        3,
    ],
)
def test_run_config_rejects_a_sweep_that_is_not_a_start_stop_steps_triple(sweep):
    with pytest.raises(ValidationError, match="sweep"):
        exp1_config(phi_c_values=(0.0,), sweep=sweep)


BIG = 10**400  # an int no float can hold: math.isfinite raises OverflowError on it


@pytest.mark.parametrize(
    "build",
    [
        lambda: PhaseSetting(BIG, 0.0),
        lambda: PhaseGrid((BIG,), (0.0,)),
        lambda: exp1_config(phi_a=BIG),
        lambda: exp1_config(phi_a_prime=BIG),
        lambda: exp1_config(phi_b_values=(0.0, BIG)),
        lambda: exp1_config(phi_c_values=(BIG,)),
        lambda: exp1_config(sweep=(BIG, 1.0, 3)),
        lambda: exp1_config(sweep=(0.0, -BIG, 3)),
        lambda: expression_value(chsh_expression(), (0.0, BIG, 0.0, 0.0)),
        lambda: nchv_lower_bound(0.9, BIG, 0.9, (0.0, 0.0, 0.0)),
        lambda: nchv_lower_bound(0.9, 0.9, 0.9, (0.0, 0.0, BIG)),
        lambda: propagate_error([(0.1, 0.0), (0.2, BIG)], [1, -1]),
    ],
    ids=["PhaseSetting", "PhaseGrid", "phi_a", "phi_a_prime", "phi_b_values",
         "phi_c_values", "sweep_start", "sweep_stop", "expression_value",
         "nchv_lower_bound_value", "nchv_lower_bound_sigma", "propagate_error_sigma"],
)
def test_ints_too_large_for_a_float_are_validation_errors(build):
    with pytest.raises(ValidationError, match="finite|within"):
        build()


_FIXTURE_ROWS = {
    "exp1": (FIXTURES / "exp1_reference.csv").read_text().splitlines()[1:],
    "exp2": (FIXTURES / "exp2_reference.csv").read_text().splitlines()[1:],
}


def _with_field(rows, row, column, text):
    fields = rows[row].split(",")
    fields[column] = text
    return rows[:row] + [",".join(fields)] + rows[row + 1:]


def _edit(rows, edits):
    for row, column, text in edits:
        rows = _with_field(rows, row, column, text)
    return rows


def test_replay_exp1_reference_values():
    report = replay(FIXTURES / "exp1_reference.csv")
    derived = report.derived
    assert derived["nchv_lower_bound"] == pytest.approx(0.666, abs=1e-9)
    assert 0.0080 <= derived["nchv_lower_bound_sigma"] <= 0.0090
    assert derived["fourth_value"] == pytest.approx(-0.885, abs=1e-12)
    assert derived["inequality_value"] == pytest.approx(-3.551, abs=1e-9)
    assert report.verdict["violated"] is True
    assert "seed" not in report.config


def test_replay_exp2_reference_values():
    report = replay(FIXTURES / "exp2_reference.csv")
    derived = report.derived
    assert derived["inequality_value"] == pytest.approx(2.595, abs=1e-9)
    assert 0.015 <= derived["inequality_sigma"] <= 0.017
    assert derived["significance"] == pytest.approx(
        (2.595 - 2.0) / derived["inequality_sigma"], abs=1e-9
    )
    assert "seed" not in report.config
    assert report.config["mode"] == "replay"


def test_replay_row_order_does_not_matter(tmp_path):
    """Every order of the exp1 rows, and every order of the exp2 rows that
    keeps the fixture's first phi_a (the CHSH a) first, replays to the
    fixture's JSON."""
    scrambled = tmp_path / "scrambled.csv"

    def json_text(report):
        return report_json_text(replace(report, config={**report.config, "source": ""}))

    for name, rows in _FIXTURE_ROWS.items():
        expected = json_text(replay(FIXTURES / f"{name}_reference.csv"))
        first_a = rows[0].split(",")[0]
        orders = [
            order for order in itertools.permutations(rows)
            if name == "exp1" or order[0].split(",")[0] == first_a
        ]
        assert len(orders) == {"exp1": 24, "exp2": 12}[name]
        for order in orders:
            scrambled.write_text("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(order) + "\n")
            report = replay(scrambled)
            assert json_text(report) == expected, order
            if name == "exp1":
                assert report.derived["nchv_lower_bound"] == pytest.approx(0.666, abs=1e-9)


@pytest.mark.parametrize(
    "phi_a, line",
    [(("0.1", "0.2", "0.3", "0.4"), 4), (("0.46", "0.01", "0.01", "0.47"), 5)],
)
def test_replay_rejects_exp1_rows_whose_shared_a_phase_differs(tmp_path, phi_a, line):
    """The (0, 0) and (0.5, 0.5) Mermin rows read one A phase and the other
    two rows another, so each pair must give one phi_a."""
    rows = [",".join((a, *row.split(",")[1:])) for a, row in zip(phi_a, _FIXTURE_ROWS["exp1"])]
    path = tmp_path / "values.csv"
    path.write_text("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(rows) + "\n")
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == line
    assert "phi_a=" in str(excinfo.value)


def test_replay_accepts_one_shift_per_phi_a_value(tmp_path):
    """Moving all rows of one phi_a value by the same amount keeps the rows
    of each A phase together, so every row keeps its term."""
    path = tmp_path / "values.csv"
    for name, rows in _FIXTURE_ROWS.items():
        expected = replay(FIXTURES / f"{name}_reference.csv").derived
        for shift in (0.02, -0.013, 0.25):
            moved = {}
            lines = []
            for row in rows:
                phi_a, rest = row.split(",", 1)
                moved.setdefault(phi_a, repr(float(phi_a) + shift * (len(moved) + 1)))
                lines.append(f"{moved[phi_a]},{rest}")
            path.write_text("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(lines) + "\n")
            assert replay(path).derived == expected


def test_replay_parse_errors_carry_line_numbers(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FixtureParseError) as excinfo:
        replay(empty)
    assert excinfo.value.line_number == 1

    bad_number = tmp_path / "bad_number.csv"
    bad_number.write_text(
        "phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.885,0.005\n0.01,0.5,0,oops,0.005\n"
    )
    with pytest.raises(FixtureParseError) as excinfo:
        replay(bad_number)
    assert excinfo.value.line_number == 3
    assert "line 3" in str(excinfo.value)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("phi_a,phi_b,E,sigma\n")
    with pytest.raises(FixtureParseError) as excinfo:
        replay(bad_header)
    assert excinfo.value.line_number == 1

    mixed = tmp_path / "mixed.csv"
    mixed.write_text(
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.46,0,0,0.885,0.005\n"
        "-0.72,0,,0.586,0.008\n"
    )
    with pytest.raises(FixtureParseError) as excinfo:
        replay(mixed)
    assert excinfo.value.line_number == 3

    duplicate = tmp_path / "duplicate.csv"
    duplicate.write_text(
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.46,0,0,0.885,0.005\n"
        "0.46,0,0,0.885,0.005\n"
    )
    with pytest.raises(FixtureParseError) as excinfo:
        replay(duplicate)
    assert excinfo.value.line_number == 3

    stray_phase = tmp_path / "stray_phase.csv"
    stray_phase.write_text(
        "phi_a,phi_b,phi_c,E,sigma\n0.46,0.3,0,0.885,0.005\n"
    )
    with pytest.raises(FixtureParseError) as excinfo:
        replay(stray_phase)
    assert excinfo.value.line_number == 2


def test_replay_errors_name_physical_lines_after_a_multiline_field(tmp_path):
    path = tmp_path / "values.csv"
    path.write_text(
        'phi_a,phi_b,phi_c,E,sigma\n"0.46\n",0,0,0.885,0.005\noops,0,0,0.9,0.1\n'
    )
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == 4
    assert "line 4" in str(excinfo.value)

    path.write_text('phi_a,phi_b,phi_c,E,sigma\n"0.46\n",0,0,oops,0.005\n')
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "trials, cause",
    [(3, "more trials are needed"), (20000, "the outcomes are deterministic")],
)
def test_unassessed_summary_blames_only_unit_correlation_settings(trials, cause):
    # at unit visibility, phi_a = 0.3 leaves two settings at |E| = 1 and
    # two below it; only the latter can reach 5 events of each sign
    config = RunConfig(
        experiment="exp1",
        noise=NoiseModel(),
        trials_per_setting=trials,
        seed=4,
        phi_a=0.3,
    )
    report = run_exp1_report(config)
    assert report.derived["significance"] is None
    assert cause in report.verdict["summary"]


def test_threshold_study_values():
    mermin = threshold_study("mermin", 1e-4)
    chsh = threshold_study("chsh", 1e-4)
    assert mermin["threshold_visibility"] == pytest.approx(0.5, abs=1e-3)
    assert chsh["threshold_visibility"] == pytest.approx(math.sqrt(0.5), abs=1e-3)
    assert mermin["classical_bound"] == 2.0
    assert chsh["classical_bound"] == 2.0
    assert mermin["quantum_value_at_unit_visibility"] == pytest.approx(4.0, abs=1e-12)
    assert chsh["quantum_value_at_unit_visibility"] == pytest.approx(
        2.0 * math.sqrt(2.0), abs=1e-12
    )


def test_threshold_study_resolution_controls_granularity():
    coarse = threshold_study("mermin", 0.05)
    assert coarse["threshold_visibility"] == pytest.approx(0.55, abs=1e-12)
    for resolution in (0.0, 1e-25, 5e-324):
        with pytest.raises(ValidationError):
            threshold_study("mermin", resolution)
    with pytest.raises(ValidationError):
        threshold_study("unknown", 1e-3)


def test_render_text_contains_rounded_summary():
    report = replay(FIXTURES / "exp2_reference.csv")
    text = render_report_text(report)
    assert "2.595" in text
    assert "0.016" in text
    assert "verdict:" in text
    sim_text = render_report_text(run_exp1_report(exp1_config()))
    assert "seed=2024" in sim_text


def _grid_scan(amplitude, limit, resolution):
    """Reference: scan every visibility on the grid for the first violation."""
    steps = int(round(1.0 / resolution))
    visibilities = np.linspace(0.0, 1.0, steps + 1)
    above = visibilities * amplitude > limit
    assert above.any()
    return float(visibilities[int(np.argmax(above))])


def _grid_scan_study(expression, resolution):
    """Reference: the threshold study by scalar correlations and a full scan."""
    q, h = math.pi / 4.0, math.pi / 2.0
    if expression == "mermin":
        e = [correlation_qm3(PhaseSetting(*p))
             for p in ((h, 0.0, 0.0), (0.0, h, 0.0), (0.0, 0.0, h), (h, h, h))]
        amplitude = abs(e[3] - e[0] - e[1] - e[2])
        limit = classical_bound(mermin_expression(), PhaseGrid((h, 0.0), (0.0, h), (0.0, h)))
    else:
        e = [correlation_qm2(PhaseSetting(*p)) for p in ((q, 0.0), (q, h), (-q, h), (-q, 0.0))]
        amplitude = abs(e[0] + e[1] + e[2] - e[3])
        limit = classical_bound(chsh_expression(), PhaseGrid((q, -q), (0.0, h)))
    return {
        "expression": expression,
        "classical_bound": limit,
        "quantum_value_at_unit_visibility": float(amplitude),
        "threshold_visibility": _grid_scan(amplitude, limit, resolution),
        "resolution": resolution,
    }


@pytest.mark.parametrize("resolution", [1e-4, 1e-3, 3e-3, 0.05, 0.1])
@pytest.mark.parametrize("expression", ["chsh", "mermin"])
def test_threshold_study_equals_grid_scan(expression, resolution):
    assert threshold_study(expression, resolution) == _grid_scan_study(expression, resolution)


@settings(max_examples=300, deadline=None)
@given(
    limit=st.floats(0.01, 100.0),
    ratio=st.floats(1.0, 1000.0, exclude_min=True),
    resolution=st.floats(1e-5, 0.1),
)
def test_grid_threshold_equals_grid_scan(limit, ratio, resolution):
    amplitude = limit * ratio
    assume(amplitude > limit)
    assert _grid_threshold(amplitude, limit, resolution) == _grid_scan(
        amplitude, limit, resolution
    )


@pytest.mark.parametrize(
    "text",
    [
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.46,0,0,0.885,0.005\n"
        "0.01,0.5,0,1.01,0.005\n"
        "0.01,0,0.5,0.884,0.005\n"
        "0.46,0.5,0.5,-0.885,0.005\n",
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.25,0,,0.586,0.01\n"
        "0.25,0.5,,1.01,0.01\n"
        "-0.25,0.5,,0.714,0.01\n"
        "-0.25,0,,-0.590,0.01\n",
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.25,0,,0.586,0.01\n"
        "0.25,0.5,,-1.01,0.01\n",
    ],
    ids=["exp1", "exp2", "exp2-negative"],
)
def test_replay_rejects_correlations_outside_unit_interval(tmp_path, text):
    path = tmp_path / "values.csv"
    path.write_text(text)
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == 3
    assert "outside [-1, 1]" in str(excinfo.value)


@pytest.mark.parametrize(
    "experiment, row, column, text, message",
    [
        ("exp1", 1, 0, "1e308", "not finite in radians"),
        ("exp2", 2, 1, "-1e308", "not finite in radians"),
        ("exp1", 1, 4, "1e200", "above 1"),
        ("exp2", 2, 4, "1.0000001", "above 1"),
        ("exp1", 1, 0, "1" * 140000, "unreadable CSV"),
        # Matcher faults.  exp1 terms differ in (phi_b, phi_c) alone, so a
        # count of distinct phi_a is no fault there; an exp2 row with a
        # phi_c makes a mixed file (test_replay_parse_errors_carry_line_numbers).
        pytest.param("exp1", 2, 1, "0.3", "must be 0 or 0.5 (units of pi); got phi_b=0.3",
                     id="exp1-off-grid-phi_b"),
        pytest.param("exp1", 3, 2, "0.25", "got phi_b=0.5, phi_c=0.25", id="exp1-off-grid-phi_c"),
        pytest.param("exp1", 1, 1, "0", "duplicate setting phi_b=0.0, phi_c=0.0",
                     id="exp1-duplicate"),
        pytest.param("exp1", 2, None, _FIXTURE_ROWS["exp1"][:3], "expected 4 settings, found 3",
                     id="exp1-missing-row"),
        pytest.param("exp1", 4, None, _FIXTURE_ROWS["exp1"] + _FIXTURE_ROWS["exp1"][1:2],
                     "duplicate setting phi_b=0.5, phi_c=0.0", id="exp1-extra-row"),
        pytest.param("exp2", 1, 1, "1", "must be 0 or 0.5 (units of pi); got phi_b=1.0",
                     id="exp2-off-grid-phi_b"),
        pytest.param("exp2", 3, 1, "0.5", "duplicate setting phi_a=0.75, phi_b=0.5",
                     id="exp2-duplicate"),
        pytest.param("exp2", 2, None, _FIXTURE_ROWS["exp2"][:3], "expected 4 settings, found 3",
                     id="exp2-missing-row"),
        pytest.param("exp2", 4, None, _FIXTURE_ROWS["exp2"] + _FIXTURE_ROWS["exp2"][:1],
                     "duplicate setting phi_a=-0.72, phi_b=0.0", id="exp2-extra-row"),
        pytest.param("exp2", 2, None, _edit(_FIXTURE_ROWS["exp2"], [(2, 0, "-0.72"), (3, 0, "-0.72")]),
                     "duplicate setting phi_a=-0.72, phi_b=0.5", id="exp2-one-phi_a"),
        pytest.param("exp2", 3, 0, "0.1", "expected 2 distinct phi_a values, found 3",
                     id="exp2-three-phi_a"),
    ],
)
def test_replay_rejects_unusable_fields_with_line_numbers(
    tmp_path, experiment, row, column, text, message
):
    """Field ``column`` of fixture row ``row`` becomes ``text``, or, where
    ``column`` is None, ``text`` holds every data row; the error names the
    line of data row ``row``."""
    if column is None:
        rows = text
    else:
        rows = _with_field(_FIXTURE_ROWS[experiment], row, column, text)
    path = tmp_path / "values.csv"
    path.write_text("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(rows) + "\n")
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == row + 2
    assert message in str(excinfo.value)


def test_replay_rejects_non_utf8_bytes_with_line_number(tmp_path):
    path = tmp_path / "values.csv"
    path.write_bytes(b"phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.885,0.005\n0.01,\xff,0,0.9,0.1\n")
    with pytest.raises(FixtureParseError) as excinfo:
        replay(path)
    assert excinfo.value.line_number == 3
    assert "UTF-8" in str(excinfo.value)


def test_replay_accepts_sigma_of_one(tmp_path):
    rows = _with_field(_FIXTURE_ROWS["exp2"], 0, 4, "1")
    path = tmp_path / "values.csv"
    path.write_text("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(rows) + "\n")
    assert replay(path).estimates[0]["sigma"] == 1.0


_PHASE_TEXT = st.one_of(
    st.sampled_from(["0", "0.5", "0.46", "0.01", "-0.72", "0.75", "", "1e308", "x"]),
    st.floats().map(repr),
)
_NUMBER_TEXT = st.one_of(
    st.floats(-1.2, 1.2).map(repr),
    st.floats().map(repr),
    st.sampled_from(["0", "1", "0.005", "", "nan"]),
    st.text(max_size=4),
)
_ROW_TEXT = st.tuples(_PHASE_TEXT, _PHASE_TEXT, _PHASE_TEXT, _NUMBER_TEXT, _NUMBER_TEXT).map(
    ",".join
)
_CSV_BYTES = st.lists(_ROW_TEXT, max_size=6).map(
    lambda rows: ("phi_a,phi_b,phi_c,E,sigma\n" + "\n".join(rows) + "\n").encode()
)
_FIELD_TEXT = st.one_of(_PHASE_TEXT, _NUMBER_TEXT)
# The fixtures in any row order, with up to three fields replaced.
_FIXTURE_BYTES = st.tuples(
    st.sampled_from(sorted(_FIXTURE_ROWS)).flatmap(
        lambda name: st.permutations(_FIXTURE_ROWS[name])
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), _FIELD_TEXT), max_size=3
    ),
).map(
    lambda parts: (
        "phi_a,phi_b,phi_c,E,sigma\n"
        + "\n".join(_edit(list(parts[0]), parts[1]))
        + "\n"
    ).encode()
)


# Edited fixtures, random rows, raw bytes, and either with raw bytes spliced in.
_REPLAY_BYTES = st.one_of(
    _FIXTURE_BYTES,
    _CSV_BYTES,
    st.binary(max_size=300),
    st.tuples(
        st.one_of(_FIXTURE_BYTES, _CSV_BYTES),
        st.binary(min_size=1, max_size=8),
        st.integers(0, 400),
    ).map(
        lambda parts: parts[0][: parts[2]] + parts[1] + parts[0][parts[2]:]
    ),
)


@settings(max_examples=400, deadline=None)
@given(data=_REPLAY_BYTES)
def test_replay_of_arbitrary_bytes_reports_or_raises_parse_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("replay") / "values.csv"
    path.write_bytes(data)
    try:
        report = replay(path)
    except FixtureParseError:
        return
    json.loads(report_json_text(report))
    render_report_text(report)


@settings(max_examples=60, deadline=None)
@given(
    experiment=st.sampled_from(["exp1", "exp2"]),
    trials=st.integers(1, 60),
    seed=st.integers(0, 2**31),
)
def test_simulated_significance_needs_five_events_of_each_sign(experiment, trials, seed):
    config = RunConfig(
        experiment=experiment,
        noise=NoiseModel(visibility=0.95),
        trials_per_setting=trials,
        seed=seed,
        phi_a=HALF_PI if experiment == "exp1" else math.pi / 4.0,
        phi_a_prime=0.0 if experiment == "exp1" else -math.pi / 4.0,
    )
    try:
        report = (run_exp1_report if experiment == "exp1" else run_exp2_report)(config)
    except EstimationError:
        return  # no A=+1 events at some exp1 setting
    fewest = min(
        round(e["n"] * (1.0 - abs(e["value"])) / 2.0) for e in report.estimates
    )
    significance = report.derived["significance"]
    assert (significance is not None) == (fewest >= 5)
    if significance is None:
        assert "no error estimate" in report.verdict["summary"]
        assert "more trials are needed" in report.verdict["summary"]
    else:
        assert "standard deviations" in report.verdict["summary"] or not report.verdict["violated"]
