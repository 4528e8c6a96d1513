import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nchvsim import cli, reports
from nchvsim.montecarlo import MAX_TRIALS
from nchvsim.reports import MAX_SCAN_SETTINGS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*argv):
    """Exit code, stdout and stderr of one in-process ``cli.main`` call.
    Nothing is caught, so an exception fails the test with its traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


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
    assert run_cli(*args, "--out", str(tmp_path / "a.csv"))[0] == 0
    assert run_cli(*args, "--out", str(tmp_path / "b.csv"))[0] == 0
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    assert a.startswith(b"phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic\n")
    assert b"\r" not in a
    # 2 phi_b values x 1 phi_c value x 7 sweep points
    assert a.count(b"\n") == 15


def test_scan_to_stdout():
    code, out, _ = run_cli(
        "scan", "--experiment", "exp2", "--trials", "500", "--sweep", "0:0.5:3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi_a,phi_b,phi_c,E_est,sigma,N_detected,E_analytic"
    assert len(lines) == 4


def test_exp1_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        "exp1", "--visibility", "0.885", "--trials", "10000", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    assert "verdict:" in stdout
    payload = json.loads(out.read_text())
    assert payload["config"]["visibility"] == 0.885
    assert payload["derived"]["classical_bound"] == 2.0
    assert payload["verdict"]["violated"] is True
    rerun = run_cli(
        "exp1", "--visibility", "0.885", "--trials", "10000", "--seed", "3",
        "--out", str(tmp_path / "again.json"),
    )
    assert rerun[0] == 0
    assert out.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_exp2_report_runs():
    code, out, _ = run_cli("exp2", "--visibility", "0.92", "--trials", "5000")
    assert code == 0
    assert "event-ready" in out


def test_replay_exp1_fixture(tmp_path):
    out = tmp_path / "replay.json"
    code, stdout, _ = run_cli("replay", str(FIXTURES / "exp1_reference.csv"), "--out", str(out))
    assert code == 0
    assert "0.666" in stdout
    payload = json.loads(out.read_text())
    assert "seed" not in payload["config"]
    assert payload["derived"]["nchv_lower_bound_sigma"] < 0.009


def test_replay_malformed_fixture_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,not-a-number,0.005\n")
    code, _, err = run_cli("replay", str(bad))
    assert code == 2
    assert "line 2" in err


def test_replay_missing_file_exits_2():
    assert run_cli("replay", "/nonexistent/values.csv")[0] == 2


def test_usage_errors_exit_1():
    assert run_cli("bogus")[0] == 1
    assert run_cli("scan")[0] == 1  # --experiment is required
    assert run_cli("exp1", "--trials", "not-a-number")[0] == 1


def test_validation_errors_exit_2():
    assert run_cli("exp1", "--visibility", "1.5")[0] == 2
    assert run_cli(
        "scan", "--experiment", "exp2", "--phi-c", "0", "--sweep", "0:1:2"
    )[0] == 2


_SCAN2 = ("scan", "--experiment", "exp2", "--trials", "10", "--seed", "1")
_SCAN1 = ("scan", "--experiment", "exp1", "--trials", "10", "--seed", "1")


@pytest.mark.parametrize("trials, code", [(MAX_TRIALS, 0), (MAX_TRIALS + 1, 2)],
                         ids=["at-ceiling", "above-ceiling"])
def test_trial_ceiling_is_the_largest_accepted_count(trials, code):
    # At efficiency 1e-6 a run at the ceiling samples ~100 events per setting.
    status, _, err = run_cli("exp2", "--trials", str(trials), "--efficiency", "1e-6")
    assert status == code
    if code:
        assert err == f"error: trials must be at most {MAX_TRIALS}, got {trials}\n"


@pytest.mark.parametrize("phi_b, steps, code", [
    ("0,0.5", 3, 0),
    ("0", 7, 2),
    ("0,0.5", 4, 2),
], ids=["at-ceiling", "above-ceiling", "above-ceiling-by-the-fixed-phases"])
def test_scan_settings_ceiling_is_the_largest_accepted_scan(monkeypatch, phi_b, steps, code):
    monkeypatch.setattr(reports, "MAX_SCAN_SETTINGS", 6)
    status, _, err = run_cli(*_SCAN2, "--phi-b", phi_b, "--sweep", f"-1:1:{steps}")
    assert status == code
    if code:
        assert err.startswith("error: a scan samples at most 6 settings")


@pytest.mark.parametrize("argv, flag, given, value", [
    (_SCAN2, "--sweep", "--swe", "-1:1:3"),
    (_SCAN2, "--sweep", "--sweep", "-1:1:3"),
    (_SCAN1, "--phi-b", "--phi-b", "-0.5,0.5"),
    (_SCAN1, "--phi-c", "--phi-c", "-0.5"),
], ids=["swe", "sweep", "phi-b", "phi-c"])
def test_value_starting_with_minus_may_follow_a_space(argv, flag, given, value):
    # argparse reads such a value after any unambiguous abbreviation
    spaced = run_cli(*argv, given, value)
    joined = run_cli(*argv, f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == 0


def test_tokens_that_start_like_negative_numbers_are_values():
    assert run_cli("exp1", "--visibility", "-1e-3") == (
        2, "", "error: visibility must be in [0, 1], got -0.001\n")
    code, _, err = run_cli("exp1", "--trials", "-1e3")
    assert code == 1
    assert "argument --trials: invalid int value: '-1e3'" in err
    code, _, err = run_cli("exp1", "--phi-a", "-1e-3", "--trials", "1000")
    assert code == 0, err
    # a positional that starts like a negative number is read as given
    assert run_cli("replay", "-1.csv") == (
        2, "", "error: [Errno 2] No such file or directory: '-1.csv'\n")


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
    (("exp1", "--config", "{config}"), '{"out": "a\\u0000b", "trials": 10}',
     "nchvsim: error: config key 'out': a value may not hold a NUL character"),
    (("exp1", "--trials", "10", "--out", "a\0b"), None,
     "nchvsim: error: argument 'a\\x00b' may not hold a NUL character"),
], ids=["phase-list", "sweep-parts", "sweep-number", "config-empty", "config-unreadable",
        "config-not-json", "config-list", "config-nul", "argv-nul"])
def test_usage_error_exits_1_with_its_own_message(tmp_path, argv, contents, message):
    config = tmp_path / "run.json"
    if contents is not None:
        config.write_text(contents)
    code, _, err = run_cli(*(token.replace("{config}", str(config)) for token in argv))
    assert code == 1
    assert err.splitlines()[-1] == message.replace("{config}", str(config))


@pytest.mark.parametrize("contents", [
    b'{"trials": \xff}',
    b'{"trials": 1' + b"0" * 5000 + b"}",
    b'{"out": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["not-utf8", "int-past-the-digit-limit", "nested-too-deep"])
def test_config_file_that_json_cannot_read_exits_1(tmp_path, contents):
    # each used to end in a traceback from json.load
    config = tmp_path / "run.json"
    config.write_bytes(contents)
    code, out, err = run_cli("exp1", "--config", str(config))
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("nchvsim: error: bad config file: ")


@pytest.mark.parametrize("argv, message", [
    (("exp1", "--trials", "1", "--seed", "0"),
     "error: no A=+1 coincidences recorded; cannot estimate\n"),
    (("exp2", "--trials", "1", "--efficiency", "0.01"),
     "error: no coincidences recorded; cannot estimate\n"),
])
def test_estimator_without_usable_events_exits_2(argv, message):
    assert run_cli(*argv) == (2, "", message)


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
def test_equal_beam_splitter_phases_exit_2_naming_both(experiment):
    assert run_cli(experiment, "--phi-a", "0.25", "--phi-a-prime", "0.25", "--trials", "100") == (
        2, "", "error: phi_a and phi_a_prime must be two different beam-splitter phases\n"
    )


@pytest.mark.parametrize("resolution", ["1e-25", "5e-324"])
def test_threshold_below_finest_resolution_exits_2(resolution):
    # 1e-25 used to hang and 5e-324 to end in an OverflowError traceback
    code, _, err = run_cli("threshold", "--expression", "chsh", "--resolution", resolution)
    assert code == 2
    assert err.startswith("error: resolution must be in [1e-12, 0.1]")


@pytest.mark.parametrize("argv", [
    ("scan", "--experiment", "exp2", "--trials", "100", "--sweep", "0:0.5:3"),
    ("exp1", "--trials", "1000"),
    ("exp2", "--trials", "1000"),
    ("nchv-bound", "--expression", "chsh"),
    ("threshold", "--expression", "chsh"),
    ("replay", str(FIXTURES / "exp2_reference.csv")),
], ids=lambda argv: argv[0])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, argv):
    code, out, err = run_cli(*argv, "--out", str(tmp_path / "missing" / "x"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_threshold_subcommand(tmp_path):
    out = tmp_path / "threshold.json"
    code, stdout, _ = run_cli("threshold", "--expression", "chsh", "--out", str(out))
    assert code == 0
    assert "0.7072" in stdout
    payload = json.loads(out.read_text())
    assert payload["threshold_visibility"] == 0.7072


def test_nchv_bound_subcommand():
    code, out, _ = run_cli("nchv-bound", "--expression", "mermin")
    assert code == 0
    assert "classical bound 2" in out
    assert "64 assignments" in out


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    code, out, _ = run_cli("exp1", "--config", str(config))
    assert code == 0
    assert "visibility=0.885" in out
    assert "trials=4000" in out
    # explicit flags still win over config values
    code, out, _ = run_cli("exp1", "--config", str(config), "--trials", "2000")
    assert code == 0
    assert "trials=2000" in out


def test_config_flag_may_be_abbreviated(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    code, out, _ = run_cli("exp1", "--conf", str(config))
    assert code == 0
    assert "visibility=0.885 efficiency=1 background=0 trials=4000 seed=17" in out


def test_last_config_flag_wins(tmp_path):
    first, last = tmp_path / "first.json", tmp_path / "last.json"
    first.write_text(json.dumps({"trials": 4000}))
    last.write_text(json.dumps({"trials": 3000}))
    code, out, _ = run_cli("exp1", "--config", str(first), "--config", str(last))
    assert code == 0
    assert "trials=3000" in out


@pytest.mark.parametrize("argv", [
    ["replay", str(FIXTURES / "exp2_reference.csv")],
    ["nchv-bound", "--expression", "chsh"],
    ["threshold", "--expression", "chsh"],
], ids=["replay", "nchv-bound", "threshold"])
def test_config_is_not_a_flag_of_the_other_subcommands(tmp_path, argv):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(*argv, "--config", str(missing))
    assert code == 1
    assert f"error: unrecognized arguments: --config {missing}" in err
    assert "cannot read config file" not in err


def test_bad_explicit_flag_is_reported_before_a_bad_config_file(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    code, _, err = run_cli("exp1", "--trials", "x", "--config", str(config))
    assert code == 1
    assert "error: argument --trials: invalid int value: 'x'" in err
    assert "bad config file" not in err


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"no-such-flag": 1}))
    assert run_cli("exp1", "--config", str(config))[0] == 1


@pytest.mark.parametrize("key", ["config", "help"])
def test_config_file_may_not_set_config_or_help(tmp_path, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: "x.json"}))
    code, _, err = run_cli("exp2", "--config", str(config))
    assert code == 1
    assert f"error: config key '{key}' is not a flag of 'exp2'" in err


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
    code, _, err = run_cli("exp2", "--config", str(config))
    assert code == 1
    assert f"error: config key '{key}': " in err


def _parser_defaults(parsers):
    return [
        {action.dest: parser.get_default(action.dest) for action in parser._actions}
        for parser in parsers
    ]


def test_shared_parser_keeps_no_config_defaults_between_calls(tmp_path, monkeypatch):
    # The one place the CLI runs in a fresh process here: each call must
    # give the same exit code, stdout and stderr as in a process of its own.
    import subprocess
    import sys

    # usage text wraps at the terminal width; pin it for both processes
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"visibility": 0.885, "trials": 4000, "seed": 17}))
    with_config = ["exp1", "--config", str(config)]
    calls = [["exp1"], with_config, ["exp1"], with_config + ["--trials", "x"],
             ["exp1", "--trials", "0"], ["exp1"]]
    parser, subparsers = cli.build_parser()
    again = cli.build_parser()
    assert again[0] is parser and again[1] is subparsers
    parsers = [parser, *subparsers.values()]
    before = _parser_defaults(parsers)
    codes = []
    for argv in calls:
        result = run_cli(*argv)
        fresh = subprocess.run([sys.executable, "-m", "nchvsim.cli", *argv],
                               capture_output=True, text=True)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert _parser_defaults(parsers) == before, argv
        codes.append(result[0])
    assert codes == [0, 0, 0, 1, 2, 0]
    assert "visibility=1" in result[1]


@pytest.mark.parametrize("seed", ["1", "3"])
def test_single_trial_report_has_no_error_estimate_not_an_exact_verdict(tmp_path, seed):
    # every correlation comes out +-1, so the counting sigma is 0
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli("exp2", "--trials", "1", "--seed", seed, "--out", str(out))
    assert code == 0
    assert "exact" not in stdout
    payload = json.loads(out.read_text())
    assert payload["derived"]["inequality_sigma"] == 0.0
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "more trials are needed" in summary
    assert f"verdict: {summary}\n" in stdout


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
    assert run_cli("replay", str(values), "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    assert payload["derived"]["significance"] is None
    assert payload["verdict"]["summary"] == (
        "event-ready inequality violated: |3.600| > 2 (exact, zero statistical uncertainty)"
    )


@pytest.mark.parametrize("seed", ["3", "6"])
def test_few_trial_report_gives_no_gaussian_significance(tmp_path, seed):
    # sigma is small but not 0: most correlations come out +-1 from 5 trials
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli("exp2", "--trials", "5", "--seed", seed, "--out", str(out))
    assert code == 0
    assert "standard deviations" not in stdout
    payload = json.loads(out.read_text())
    assert payload["derived"]["inequality_sigma"] > 0.0
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "more trials are needed" in summary
    assert f"verdict: {summary}\n" in stdout


def test_unit_visibility_exp1_says_outcomes_are_deterministic(tmp_path):
    # every analytic correlation is +-1, so no trial count gives 5 events of
    # each product sign and more trials cannot help
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli("exp1", "--trials", "10000", "--seed", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["derived"]["significance"] is None
    summary = payload["verdict"]["summary"]
    assert "no error estimate" in summary
    assert "the outcomes are deterministic at these settings" in summary
    assert "more trials" not in summary
    assert f"verdict: {summary}\n" in stdout


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
    code, _, err = run_cli("replay", str(values), "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: line {line}: ")
    assert not out.exists()


# The argv property test: some argvs take only usable values, and each of
# the others holds one of the extremes of its kind, on the command line or
# in the config file, so that it passes every other check.  Budget: an argv
# it builds may be accepted only if it asks for at most 100 trials per
# setting and at most 5 sweep steps times 3 x 3 fixed phases (45 settings);
# larger counts are drawn only above MAX_TRIALS and MAX_SCAN_SETTINGS, where
# they are refused before any sampling.  Every file it writes or names for
# writing is inside tmp_path, written as ``{tmp}`` here.
_ODD_FLOATS = ["-0.0", "1.5", "-1", "5e-324", "1e308", "-1e308", "nan", "inf", "-inf", ""]
_ODD_COUNTS = ["0", "-1", str(-2**63), str(2**63), str(10**30), str(10**400), "1.5", "nan", ""]
_ODD_PHASES = st.lists(st.sampled_from(["0", "0.5", *_ODD_FLOATS]), max_size=3).map(",".join)
_ODD_SWEEPS = st.builds("{}:{}:{}".format, st.sampled_from(["-1", *_ODD_FLOATS]),
                        st.sampled_from(["1", *_ODD_FLOATS]),
                        st.sampled_from(["1", "5", str(MAX_SCAN_SETTINGS + 1), *_ODD_COUNTS])
                        ) | st.sampled_from(["0:1", "1:2:3:4"])
# flag -> (usable values, other values)
_VALUES = {
    "--trials": (st.sampled_from(["1", "5", "100"]),
                 st.sampled_from([str(MAX_TRIALS + 1), *_ODD_COUNTS])),
    "--seed": (st.sampled_from(["0", "1", str(2**64)]), st.sampled_from(_ODD_COUNTS)),
    "--visibility": (st.sampled_from(["0", "0.9", "1"]), st.sampled_from(_ODD_FLOATS)),
    "--efficiency": (st.sampled_from(["0.5", "1"]), st.sampled_from(["0", *_ODD_FLOATS])),
    "--background": (st.sampled_from(["0", "0.05"]), st.sampled_from(["1", *_ODD_FLOATS])),
    "--phi-a": (st.sampled_from(["0.25", "0.5"]), st.sampled_from(_ODD_FLOATS)),
    "--phi-a-prime": (st.sampled_from(["0", "-0.25"]), st.sampled_from(["0.25", *_ODD_FLOATS])),
    "--experiment": (st.sampled_from(["exp1", "exp2"]), st.sampled_from(["exp3", ""])),
    "--sweep": (st.sampled_from(["-1:1:5", "0:0.5:1"]), _ODD_SWEEPS),
    "--phi-b": (st.sampled_from(["0", "0,0.5", "0,0.25,0.5"]), _ODD_PHASES),
    "--phi-c": (st.sampled_from(["0", "0,0.5"]), _ODD_PHASES),
    "--expression": (st.sampled_from(["chsh", "mermin"]), st.sampled_from(["bell", ""])),
    "--resolution": (st.sampled_from(["1e-4", "0.01"]),
                     st.sampled_from(["1e-12", "1e-13", "0.1", "0.2", *_ODD_FLOATS])),
    "--out": (st.sampled_from(["{tmp}/out"]),
              st.sampled_from(["", "{tmp}/missing/out", "{tmp}", "{tmp}/a\0b"])),
}
_FLAGS = {
    "scan": ["--experiment", "--sweep", "--phi-b", "--phi-c"],
    "exp1": ["--phi-a", "--phi-a-prime"],
    "exp2": ["--phi-a", "--phi-a-prime"],
    "nchv-bound": ["--expression"],
    "threshold": ["--expression", "--resolution"],
    "replay": [],
}
_NOISE = ["--trials", "--seed", "--visibility", "--efficiency", "--background"]
# Always given, to keep the budget: the defaults are 10000 trials and 25 steps.
_REQUIRED = {"--trials", "--sweep", "--experiment", "--expression"}
# Config values of every JSON kind, at the same extremes; a string here may
# reach --out, so each is refused, empty or inside tmp_path.
_ODD_JSON = st.sampled_from([0, -1, 2**63, 10**400, 1.5, 1e308, math.nan, math.inf, -math.inf,
                             True, None, [], [1], {}, ""]) | st.sampled_from(["1\0", "{tmp}/a\0b"])
_CSV_FIELDS = st.sampled_from(["", "x", "0", "0.25", "-0.25", "0.5", "0.9", "0.01", *_ODD_FLOATS])


@st.composite
def _argvs(draw):
    """(argv, config object or None, replay CSV text or None)."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[command], []])) + ["--help"], None, None
    simulating = command in ("scan", "exp1", "exp2")
    flags = [*(_NOISE if simulating else []), *_FLAGS[command], "--out"]
    # where the one odd value goes, if any
    odd = draw(st.sampled_from([None, "argv", *(["config"] if simulating else [])]))
    odd_flag = draw(st.sampled_from(flags)) if odd == "argv" else None

    def value(flag):
        good, other = _VALUES[flag]
        return draw(other if flag == odd_flag else good)

    argv = [command]
    if command == "replay":
        argv.append(draw(st.sampled_from([str(FIXTURES / "exp1_reference.csv"),
                                          str(FIXTURES / "exp2_reference.csv"),
                                          "{tmp}/values.csv", "{tmp}/missing.csv"])))
    for flag in flags:
        if flag in _REQUIRED or flag == odd_flag or draw(st.booleans()):
            token = value(flag)
            argv += [f"{flag}={token}"] if draw(st.booleans()) else [flag, token]
    config = values = None
    if odd == "config" or simulating and draw(st.booleans()):
        keys = [flag[2:] for flag in flags]
        config = {key: value(f"--{key}")
                  for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))}
        path = "{tmp}/config.json"
        if odd == "config":
            where = draw(st.sampled_from(["value", "key", "object", "path"]))
            if where == "value":
                config[draw(st.sampled_from(keys))] = draw(_ODD_JSON)
            elif where == "key":
                config[draw(st.sampled_from(["no-such-flag", "help", "config"]))] = draw(_ODD_JSON)
            elif where == "object":
                config = draw(st.sampled_from([[], "", 1, True]))
            else:
                path = draw(st.sampled_from(["{tmp}/missing.json", ""]))
        argv += ["--config", path]
    if command == "replay":
        rows = draw(st.lists(st.lists(_CSV_FIELDS, min_size=5, max_size=5), max_size=4))
        values = "".join(",".join(row) + "\n" for row in [["phi_a", "phi_b", "phi_c", "E", "sigma"],
                                                          *rows])
    return argv, config, values


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
def test_no_argv_ends_in_an_exception_or_an_unexpected_exit(tmp_path, case):
    argv, config, values = case

    def here(text):
        return text.replace("{tmp}", str(tmp_path))

    if config is not None:
        if isinstance(config, dict):
            config = {key: here(value) if isinstance(value, str) else value
                      for key, value in config.items()}
        (tmp_path / "config.json").write_text(json.dumps(config))
    if values is not None:
        (tmp_path / "values.csv").write_text(values)
    code, out, err = run_cli(*map(here, argv))
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert ": error: " in err.splitlines()[-1]
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
