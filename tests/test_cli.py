import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from nchvsim import cli, reports
from nchvsim.montecarlo import MAX_TRIALS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "nchvsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.mark.parametrize("experiment, phi_a, phi_a_prime",
                         [("exp1", 0.5, 0.0), ("exp2", 0.25, -0.25)])
def test_default_phases_are_the_ideal_phases(experiment, phi_a, phi_a_prime):
    _, subparsers = cli.build_parser()
    defaults = (subparsers[experiment].get_default("phi_a"),
                subparsers[experiment].get_default("phi_a_prime"))
    assert defaults == (phi_a, phi_a_prime)
    # a -0.0 would read "default -0.0" in --help
    assert [math.copysign(1.0, x) for x in defaults] == [
        math.copysign(1.0, x) for x in (phi_a, phi_a_prime)]


def test_scan_writes_deterministic_csv(tmp_path):
    args = (
        "scan", "--experiment", "exp1", "--trials", "2000", "--seed", "9",
        "--sweep", "-1:1:7", "--phi-b", "0,0.5", "--phi-c", "0",
    )
    first = run_cli(*args, "--out", str(tmp_path / "a.csv"))
    second = run_cli(*args, "--out", str(tmp_path / "b.csv"))
    assert first.returncode == 0
    assert second.returncode == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a.startswith(b"phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic\n")
    assert b"\r" not in a
    # 2 phi_b values x 1 phi_c value x 7 sweep points
    assert a.count(b"\n") == 15


def test_scan_to_stdout():
    result = run_cli(
        "scan", "--experiment", "exp2", "--trials", "500", "--sweep", "0:0.5:3"
    )
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic"
    assert len(lines) == 4


def test_exp1_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "exp1", "--visibility", "0.885", "--trials", "10000", "--seed", "3",
        "--out", str(out),
    )
    assert result.returncode == 0
    assert "verdict:" in result.stdout
    payload = json.loads(out.read_text())
    assert payload["config"]["visibility"] == 0.885
    assert payload["derived"]["classical_bound"] == 2.0
    assert payload["verdict"]["violated"] is True
    rerun = run_cli(
        "exp1", "--visibility", "0.885", "--trials", "10000", "--seed", "3",
        "--out", str(tmp_path / "again.json"),
    )
    assert rerun.returncode == 0
    assert out.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_exp2_report_runs():
    result = run_cli("exp2", "--visibility", "0.92", "--trials", "5000")
    assert result.returncode == 0
    assert "event-ready" in result.stdout


def test_replay_exp1_fixture(tmp_path):
    out = tmp_path / "replay.json"
    result = run_cli("replay", str(FIXTURES / "exp1_reference.csv"), "--out", str(out))
    assert result.returncode == 0
    assert "0.666" in result.stdout
    payload = json.loads(out.read_text())
    assert "seed" not in payload["config"]
    assert payload["derived"]["nchv_lower_bound_sigma"] < 0.009


def test_replay_malformed_fixture_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,not-a-number,0.005\n")
    result = run_cli("replay", str(bad))
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_replay_missing_file_exits_2():
    result = run_cli("replay", "/nonexistent/values.csv")
    assert result.returncode == 2


def test_usage_errors_exit_1():
    assert run_cli("bogus").returncode == 1
    assert run_cli("scan").returncode == 1  # --experiment is required
    assert run_cli("exp1", "--trials", "not-a-number").returncode == 1


def test_validation_errors_exit_2():
    assert run_cli("exp1", "--visibility", "1.5").returncode == 2
    assert run_cli(
        "scan", "--experiment", "exp2", "--phi-c", "0", "--sweep", "0:1:2"
    ).returncode == 2


def _main(argv, capsys):
    """Exit code and stdout of an in-process cli.main call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


_SCAN2 = ("scan", "--experiment", "exp2", "--trials", "10", "--seed", "1")
_SCAN1 = ("scan", "--experiment", "exp1", "--trials", "10", "--seed", "1")


@pytest.mark.parametrize("trials, code", [(MAX_TRIALS, 0), (MAX_TRIALS + 1, 2)],
                         ids=["at-ceiling", "above-ceiling"])
def test_trial_ceiling_is_the_largest_accepted_count(capsys, trials, code):
    # At efficiency 1e-6 a run at the ceiling samples ~100 events per setting.
    assert cli.main(["exp2", "--trials", str(trials), "--efficiency", "1e-6"]) == code
    if code:
        assert capsys.readouterr().err == (
            f"error: trials must be at most {MAX_TRIALS}, got {trials}\n")


@pytest.mark.parametrize("phi_b, steps, code", [
    ("0,0.5", 3, 0),
    ("0", 7, 2),
    ("0,0.5", 4, 2),
], ids=["at-ceiling", "above-ceiling", "above-ceiling-by-the-fixed-phases"])
def test_scan_settings_ceiling_is_the_largest_accepted_scan(capsys, monkeypatch,
                                                            phi_b, steps, code):
    monkeypatch.setattr(reports, "MAX_SCAN_SETTINGS", 6)
    assert cli.main([*_SCAN2, "--phi-b", phi_b, "--sweep", f"-1:1:{steps}"]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: a scan samples at most 6 settings")


@pytest.mark.parametrize("argv, flag, given, value", [
    (_SCAN2, "--sweep", "--swe", "-1:1:3"),
    (_SCAN2, "--sweep", "--sweep", "-1:1:3"),
    (_SCAN1, "--phi-b", "--phi-b", "-0.5,0.5"),
    (_SCAN1, "--phi-c", "--phi-c", "-0.5"),
], ids=["swe", "sweep", "phi-b", "phi-c"])
def test_value_starting_with_minus_may_follow_a_space(capsys, argv, flag, given, value):
    # argparse reads such a value after any unambiguous abbreviation
    spaced = _main([*argv, given, value], capsys)
    joined = _main([*argv, f"{flag}={value}"], capsys)
    assert spaced == joined
    assert spaced[0] == 0


def test_tokens_that_start_like_negative_numbers_are_values():
    visibility = run_cli("exp1", "--visibility", "-1e-3")
    assert visibility.returncode == 2
    assert visibility.stderr == "error: visibility must be in [0, 1], got -0.001\n"
    trials = run_cli("exp1", "--trials", "-1e3")
    assert trials.returncode == 1
    assert "argument --trials: invalid int value: '-1e3'" in trials.stderr
    phase = run_cli("exp1", "--phi-a", "-1e-3", "--trials", "1000")
    assert phase.returncode == 0, phase.stderr
    # a positional that starts like a negative number is read as given
    path = run_cli("replay", "-1.csv")
    assert path.returncode == 2
    assert path.stderr == "error: [Errno 2] No such file or directory: '-1.csv'\n"


@pytest.mark.parametrize("argv, contents, message", [
    ((*_SCAN1, "--phi-b", "0,x"), None,
     "nchvsim scan: error: argument --phi-b: bad phase list '0,x'"),
    ((*_SCAN2, "--sweep", "0:1"), None,
     "nchvsim scan: error: argument --sweep: sweep must be start:stop:steps, got '0:1'"),
    ((*_SCAN2, "--sweep", "0:1:x"), None,
     "nchvsim scan: error: argument --sweep: bad sweep '0:1:x'"),
    (("exp1", "--config", ""), None, "nchvsim: error: --config needs a file path"),
    (("exp1", "--config", "{config}"), None,
     "nchvsim: error: cannot read config file: "
     "[Errno 2] No such file or directory: '{config}'"),
    (("exp1", "--config", "{config}"), "not json",
     "nchvsim: error: bad config file: Expecting value: line 1 column 1 (char 0)"),
    (("exp1", "--config", "{config}"), "[1, 2]",
     "nchvsim: error: config file must hold a JSON object"),
], ids=["phase-list", "sweep-parts", "sweep-number", "config-empty", "config-unreadable",
        "config-not-json", "config-list"])
def test_usage_error_exits_1_with_its_own_message(tmp_path, capsys, argv, contents, message):
    config = tmp_path / "run.json"
    if contents is not None:
        config.write_text(contents)
    argv = [token.replace("{config}", str(config)) for token in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == message.replace("{config}", str(config))


@pytest.mark.parametrize("argv, message", [
    (("exp1", "--trials", "1", "--seed", "0"),
     "error: no A=+1 coincidences recorded; cannot estimate\n"),
    (("exp2", "--trials", "1", "--efficiency", "0.01"),
     "error: no coincidences recorded; cannot estimate\n"),
])
def test_estimator_without_usable_events_exits_2(argv, message):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert result.stderr == message


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
def test_equal_beam_splitter_phases_exit_2_naming_both(experiment):
    result = run_cli(experiment, "--phi-a", "0.25", "--phi-a-prime", "0.25", "--trials", "100")
    assert result.returncode == 2
    assert result.stderr == (
        "error: phi_a and phi_a_prime must be two different beam-splitter phases\n"
    )


@pytest.mark.parametrize("resolution", ["1e-25", "5e-324"])
def test_threshold_below_finest_resolution_exits_2(resolution):
    # 1e-25 used to hang and 5e-324 to end in an OverflowError traceback
    result = run_cli("threshold", "--expression", "chsh", "--resolution", resolution)
    assert result.returncode == 2
    assert result.stderr.startswith("error: resolution must be in [1e-12, 0.1]")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ("scan", "--experiment", "exp2", "--trials", "100", "--sweep", "0:0.5:3"),
    ("exp1", "--trials", "1000"),
    ("exp2", "--trials", "1000"),
    ("nchv-bound", "--expression", "chsh"),
    ("threshold", "--expression", "chsh"),
    ("replay", str(FIXTURES / "exp2_reference.csv")),
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, argv):
    result = run_cli(*argv, "--out", str(tmp_path / "missing" / "x"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_threshold_subcommand(tmp_path):
    out = tmp_path / "threshold.json"
    result = run_cli("threshold", "--expression", "chsh", "--out", str(out))
    assert result.returncode == 0
    assert "0.7072" in result.stdout
    payload = json.loads(out.read_text())
    assert payload["threshold_visibility"] == 0.7072


def test_nchv_bound_subcommand():
    result = run_cli("nchv-bound", "--expression", "mermin")
    assert result.returncode == 0
    assert "classical bound 2" in result.stdout
    assert "64 assignments" in result.stdout


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    result = run_cli("exp1", "--config", str(config))
    assert result.returncode == 0
    assert "visibility=0.885" in result.stdout
    assert "trials=4000" in result.stdout
    # explicit flags still win over config values
    override = run_cli("exp1", "--config", str(config), "--trials", "2000")
    assert override.returncode == 0
    assert "trials=2000" in override.stdout


def test_config_flag_may_be_abbreviated(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    result = run_cli("exp1", "--conf", str(config))
    assert result.returncode == 0
    assert "visibility=0.885 efficiency=1 background=0 trials=4000 seed=17" in result.stdout


def test_last_config_flag_wins(tmp_path):
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    first.write_text(json.dumps({"trials": 4000}))
    last.write_text(json.dumps({"trials": 3000}))
    result = run_cli("exp1", "--config", str(first), "--config", str(last))
    assert result.returncode == 0
    assert "trials=3000" in result.stdout


@pytest.mark.parametrize("argv", [
    ["replay", str(FIXTURES / "exp2_reference.csv")],
    ["nchv-bound", "--expression", "chsh"],
    ["threshold", "--expression", "chsh"],
], ids=["replay", "nchv-bound", "threshold"])
def test_config_is_not_a_flag_of_the_other_subcommands(tmp_path, argv):
    missing = tmp_path / "missing.json"
    result = run_cli(*argv, "--config", str(missing))
    assert result.returncode == 1
    assert f"error: unrecognized arguments: --config {missing}" in result.stderr
    assert "cannot read config file" not in result.stderr


def test_bad_explicit_flag_is_reported_before_a_bad_config_file(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    result = run_cli("exp1", "--trials", "x", "--config", str(config))
    assert result.returncode == 1
    assert "error: argument --trials: invalid int value: 'x'" in result.stderr
    assert "bad config file" not in result.stderr


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"no-such-flag": 1}))
    assert run_cli("exp1", "--config", str(config)).returncode == 1


@pytest.mark.parametrize("key", ["config", "help"])
def test_config_file_may_not_set_config_or_help(tmp_path, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: "x.json"}))
    result = run_cli("exp2", "--config", str(config))
    assert result.returncode == 1
    assert f"error: config key '{key}' is not a flag of 'exp2'" in result.stderr


@pytest.mark.parametrize(
    "values, key",
    [
        ({"trials": 1.5}, "trials"),
        ({"visibility": True}, "visibility"),
        ({"seed": 1.5}, "seed"),
        ({"seed": 1e30}, "seed"),
        ({"out": 7}, "out"),
    ],
    ids=["float-trials", "bool-visibility", "float-seed", "huge-float-seed", "number-out"],
)
def test_config_values_pass_the_flags_own_type_checks(tmp_path, values, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    result = run_cli("exp2", "--config", str(config))
    assert result.returncode == 1
    assert f"error: config key '{key}': " in result.stderr
    assert "Traceback" not in result.stderr


def _parser_defaults(parsers):
    return [
        {action.dest: parser.get_default(action.dest) for action in parser._actions}
        for parser in parsers
    ]


def test_shared_parser_keeps_no_config_defaults_between_calls(tmp_path, capsys, monkeypatch):
    # usage text wraps at the terminal width; pin it for both processes
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    with_config = ["exp1", "--config", str(config)]
    calls = [["exp1"], with_config, ["exp1"], with_config + ["--trials", "x"], ["exp1"]]
    parser, subparsers = cli.build_parser()
    again = cli.build_parser()
    assert again[0] is parser and again[1] is subparsers
    parsers = [parser, *subparsers.values()]
    before = _parser_defaults(parsers)
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
        assert _parser_defaults(parsers) == before, argv
    assert code == 0 and "visibility=1" in captured.out


@pytest.mark.parametrize("seed", ["1", "3"])
def test_single_trial_report_has_no_error_estimate_not_an_exact_verdict(tmp_path, seed):
    # every correlation comes out +-1, so the counting sigma is 0
    out = tmp_path / "report.json"
    result = run_cli("exp2", "--trials", "1", "--seed", seed, "--out", str(out))
    assert result.returncode == 0
    assert "exact" not in result.stdout
    payload = json.loads(out.read_text())
    assert payload["derived"]["inequality_sigma"] == 0.0
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "more trials are needed" in summary
    assert f"verdict: {summary}\n" in result.stdout


def test_replayed_zero_sigma_stays_exact(tmp_path):
    values = tmp_path / "values.csv"
    values.write_text(
        "phi_a,phi_b,phi_c,E,sigma\n"
        "0.25,0,,0.9,0\n"
        "0.25,0.5,,0.9,0\n"
        "-0.25,0.5,,0.9,0\n"
        "-0.25,0,,-0.9,0\n"
    )
    out = tmp_path / "replay.json"
    result = run_cli("replay", str(values), "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["derived"]["significance"] is None
    assert payload["verdict"]["summary"] == (
        "event-ready inequality violated: |3.600| > 2 (exact, zero statistical uncertainty)"
    )


@pytest.mark.parametrize("seed", ["3", "6"])
def test_few_trial_report_gives_no_gaussian_significance(tmp_path, seed):
    # sigma is small but not 0: most correlations come out +-1 from 5 trials
    out = tmp_path / "report.json"
    result = run_cli("exp2", "--trials", "5", "--seed", seed, "--out", str(out))
    assert result.returncode == 0
    assert "standard deviations" not in result.stdout
    payload = json.loads(out.read_text())
    assert payload["derived"]["inequality_sigma"] > 0.0
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "more trials are needed" in summary
    assert f"verdict: {summary}\n" in result.stdout


def test_unit_visibility_exp1_says_outcomes_are_deterministic(tmp_path):
    # every analytic correlation is +-1, so no trial count gives 5 events of
    # each product sign and more trials cannot help
    out = tmp_path / "report.json"
    result = run_cli("exp1", "--trials", "10000", "--seed", "1", "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "the outcomes are deterministic at these settings" in summary
    assert "more trials" not in summary
    assert f"verdict: {summary}\n" in result.stdout


@pytest.mark.parametrize(
    "data, line",
    [
        (b"phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.885,0.005\n0.01,\xff,0,0.9,0.1\n", 3),
        (b"phi_a,phi_b,phi_c,E,sigma\n" + b"1" * 140000 + b",0,0,0.9,0.1\n", 2),
        (b"phi_a,phi_b,phi_c,E,sigma\n-0.72,0,,0.586,1e200\n", 2),
        (b"phi_a,phi_b,phi_c,E,sigma\n-0.72,0,,0.586,0.008\n1e308,0.5,,0.705,0.008\n", 3),
        (b"phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.885,0.005\n0.01,0,0,0.897,0.005\n", 3),
        (b"phi_a,phi_b,phi_c,E,sigma\n-0.72,0,,0.586,0.008\n-0.72,0.25,,0.705,0.008\n", 3),
        (b"phi_a,phi_b,phi_c,E,sigma\n0.1,0,0,0.885,0.005\n0.2,0.5,0,0.897,0.005\n"
         b"0.3,0,0.5,0.884,0.005\n0.4,0.5,0.5,-0.885,0.005\n", 4),
    ],
    ids=["non-utf8", "huge-field", "huge-sigma", "huge-phase", "duplicate-setting", "off-grid",
         "unshared-phi-a"],
)
def test_unusable_replay_input_exits_2_with_line_number(tmp_path, data, line):
    values = tmp_path / "values.csv"
    values.write_bytes(data)
    out = tmp_path / "replay.json"
    result = run_cli("replay", str(values), "--out", str(out))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: line {line}: ")
    assert "Traceback" not in result.stderr
    assert not out.exists()
