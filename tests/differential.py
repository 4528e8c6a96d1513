"""Differential check of unchanged outputs against another git revision.

    python tests/differential.py --against REV

Unpacks REV's ``src/`` with ``git archive`` into a temporary directory and
runs one fixed corpus under that tree and under this checkout's ``src``:
CLI commands (the golden argvs with and without ``--out``, every
``--help``, the edge verdicts, replays of files written here, flag values
that start with ``-``, and the error exits) and a seeded library corpus
printed as ``float.hex()``.  Each case runs in a subprocess with
``PYTHONPATH`` set to one tree's ``src``, ``COLUMNS=80`` and the
repository root as working directory; the two trees alternate which runs
first.  A case compares exit code, stdout, stderr and
``--out`` bytes, with the temporary directory and the trees' paths
replaced by placeholders.  One line is printed per case, naming the first
differing byte; the exit status is 1 if any case differs.

The file name keeps it out of pytest's collection, since it needs git
history.  A refactor should report 0 differing cases; a declared output
change should list exactly the cases it moves.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = ("scan", "exp1", "exp2", "nchv-bound", "threshold", "replay")

# Replay inputs and config files the corpus writes into the work directory.
INPUTS = {
    "zero_sigma_exp2.csv": "phi_a,phi_b,phi_c,E,sigma\n"
    "0.25,0,,0.9,0\n0.25,0.5,,0.9,0\n-0.25,0.5,,0.9,0\n-0.25,0,,-0.9,0\n",
    "zero_sigma_exp1.csv": "phi_a,phi_b,phi_c,E,sigma\n"
    "0.46,0,0,0.885,0\n0.01,0.5,0,0.897,0\n0.01,0,0.5,0.884,0\n0.46,0.5,0.5,-0.885,0\n",
    "satisfied_exp2.csv": "phi_a,phi_b,phi_c,E,sigma\n"
    "0.25,0,,0.45,0.01\n0.25,0.5,,0.45,0.01\n-0.25,0.5,,0.45,0.01\n-0.25,0,,-0.45,0.01\n",
    "non_numeric_e.csv": "phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,not-a-number,0.005\n",
    "unknown_key.json": '{"no-such-flag": 1}\n',
    "number_out.json": '{"out": 7}\n',
    "run.json": '{"visibility": 0.885, "trials": 4000, "seed": 17}\n',
    "float_trials.json": '{"trials": 1.5}\n',
    "not_json.json": "visibility = 0.9\n",
    "list.json": "[0.9]\n",
    # As spreadsheets' "CSV UTF-8" export writes it.
    "bom_exp2.csv": "\ufeff" + (ROOT / "fixtures" / "exp2_reference.csv").read_text("utf-8"),
    # One per replay matcher error.
    "off_grid_phi_b.csv": "phi_a,phi_b,phi_c,E,sigma\n0.46,0.3,0,0.9,0.01\n",
    "duplicate_exp1.csv": "phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.9,0.01\n0.46,0,0,0.9,0.01\n",
    "duplicate_exp2.csv": "phi_a,phi_b,phi_c,E,sigma\n0.25,0,,0.9,0.01\n0.25,0,,0.9,0.01\n",
    "third_phi_a_exp2.csv": "phi_a,phi_b,phi_c,E,sigma\n"
    "0.25,0,,0.9,0.01\n-0.25,0.5,,0.9,0.01\n0.1,0,,0.9,0.01\n",
    "partner_phi_a_exp1.csv": "phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.9,0.01\n0.1,0.5,0.5,0.9,0.01\n",
    "missing_row_exp1.csv": "phi_a,phi_b,phi_c,E,sigma\n"
    "0.46,0,0,0.885,0.005\n0.01,0.5,0,0.897,0.005\n0.01,0,0.5,0.884,0.005\n",
    "mixed_rows.csv": "phi_a,phi_b,phi_c,E,sigma\n0.46,0,0,0.9,0.01\n0.25,0,,0.9,0.01\n",
}

# Seeded library calls, run as ``python -c LIBRARY SECTION``.
LIBRARY = r"""
import random, sys
import nchvsim
from nchvsim import (
    EstimationError, NoiseModel, PhaseGrid, PhaseSetting, classical_bound, correlation_qm2,
    correlation_qm3, sample_counts,
)
from nchvsim.montecarlo import noisy_probabilities
from nchvsim.nchv import ExpressionTerm

if hasattr(nchvsim, "estimate_correlation"):
    estimate_correlation = nchvsim.estimate_correlation
else:  # revisions that name one estimator per experiment
    def estimate_correlation(counts):
        three = counts.setting.analyzers == 3
        return getattr(nchvsim, "estimate_correlation_exp1" if three
                       else "estimate_correlation_exp2")(counts)

rng = random.Random(16)
section = sys.argv[1]

def setting(k):
    return PhaseSetting(*(rng.uniform(-13.0, 13.0) for _ in range(k)))

def noise():
    return NoiseModel(rng.uniform(0.0, 1.0), rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.99))

def bound():
    # 1-64 terms, two- and three-analyzer mixed, on a grid of at most 24 bits.
    na, nb = rng.randint(1, 12), rng.randint(1, 12)
    sizes = (na, nb, rng.randint(0, min(8, 24 - na - nb)))
    terms = [ExpressionTerm(rng.choice((1, -1)), rng.randrange(sizes[0]), rng.randrange(sizes[1]),
                            rng.randrange(sizes[2]) if sizes[2] and rng.random() < 0.6 else None)
             for _ in range(rng.randint(1, 64))]
    return classical_bound(terms, PhaseGrid(*(tuple(map(float, range(n))) for n in sizes)))

for i in range(200 if section == "bounds" else 400):
    if section == "bounds":
        print(bound().hex())
        continue
    k = 2 + i % 2
    s = setting(k)
    if section == "noisy_probabilities":
        print(*(p.hex() for p in noisy_probabilities(s, noise())))
    elif section == "correlations":
        print((correlation_qm2 if k == 2 else correlation_qm3)(s).hex())
    else:
        counts = sample_counts(s, noise(), rng.choice((1, 3, 30, 3000)), rng.randrange(2**32))
        try:
            e = estimate_correlation(counts)
        except EstimationError as exc:
            print("error:", exc)
        else:
            print(e.value.hex(), e.sigma.hex(), e.n)
"""


def corpus() -> list[tuple[str, list[str], str | None]]:
    """(name, python argv, suffix of the --out file or None).  ``{tmp}`` in
    an argv stands for the work directory."""
    cli = ["-m", "nchvsim.cli"]
    cases = []
    for name, (argv, suffix) in sorted(CASES.items()):
        cases.append((name, cli + argv, None))
        cases.append((f"{name} --out", cli + argv, suffix or ".csv"))
    cases.append(("--help", cli + ["--help"], None))
    cases += [(f"{command} --help", cli + [command, "--help"], None) for command in SUBCOMMANDS]
    for argv in (["exp2", "--trials", "1", "--seed", "1"],
                 ["exp1", "--trials", "3", "--seed", "2"],
                 ["exp2", "--trials", "5", "--seed", "6"]):
        cases.append((" ".join(argv), cli + argv, ".json"))
    for stem in ("zero_sigma_exp2", "zero_sigma_exp1", "satisfied_exp2", "bom_exp2"):
        cases.append((f"replay {stem}", cli + ["replay", f"{{tmp}}/{stem}.csv"], ".json"))
    scan1 = ["scan", "--experiment", "exp1", "--trials", "10", "--seed", "1"]
    scan2 = ["scan", "--experiment", "exp2", "--trials", "10", "--seed", "1"]
    errors = {
        "config unknown key": ["exp1", "--config", "{tmp}/unknown_key.json"],
        "config number out": ["exp2", "--config", "{tmp}/number_out.json"],
        "config abbreviated flag": ["exp1", "--conf", "{tmp}/run.json"],
        "config run then float_trials": ["exp1", "--config", "{tmp}/run.json",
                                         "--config", "{tmp}/float_trials.json"],
        "config float_trials then run": ["exp1", "--config", "{tmp}/float_trials.json",
                                         "--config", "{tmp}/run.json"],
        "config without a value": ["exp1", "--config"],
        "config without a subcommand": ["--config", "{tmp}/run.json"],
        "config on replay": ["replay", "fixtures/exp2_reference.csv",
                             "--config", "{tmp}/run.json"],
        "config after a bad flag": ["exp1", "--trials", "x",
                                    "--config", "{tmp}/float_trials.json"],
        "config with an explicit flag": ["exp1", "--config", "{tmp}/run.json",
                                         "--trials", "2000"],
        "config not JSON": ["exp1", "--config", "{tmp}/not_json.json"],
        "config list": ["exp1", "--config", "{tmp}/list.json"],
        "config missing file": ["exp1", "--config", "{tmp}/missing.json"],
        "equal phases": ["exp1", "--phi-a", "0.25", "--phi-a-prime", "0.25", "--trials", "100"],
        "replay non-numeric E": ["replay", "{tmp}/non_numeric_e.csv", "--out", "{tmp}/x.json"],
        "replay missing file": ["replay", "{tmp}/missing.csv"],
        **{f"replay {stem}": ["replay", f"{{tmp}}/{stem}.csv"]
           for stem in ("off_grid_phi_b", "duplicate_exp1", "duplicate_exp2", "third_phi_a_exp2",
                        "partner_phi_a_exp1", "missing_row_exp1", "mixed_rows")},
        "exp1 without A=+1 events": ["exp1", "--trials", "1", "--seed", "0"],
        "exp2 without events": ["exp2", "--trials", "1", "--efficiency", "0.01"],
        "threshold resolution 1e-13": ["threshold", "--expression", "chsh",
                                       "--resolution", "1e-13"],
        "trials x": ["exp1", "--trials", "x"],
        "sweep -1:1:3": [*scan2, "--sweep", "-1:1:3"],
        "swe -1:1:3": [*scan2, "--swe", "-1:1:3"],
        "phi-b -0.5,0.5": [*scan1, "--phi-b", "-0.5,0.5"],
        "phi-c -0.5": [*scan1, "--phi-c", "-0.5"],
        "visibility -1e-3": ["exp1", "--visibility", "-1e-3"],
        "trials -1e3": ["exp1", "--trials", "-1e3"],
        "phi-a -1e-3": ["exp1", "--phi-a", "-1e-3", "--trials", "1000"],
        "replay -1.csv": ["replay", "-1.csv"],
        "out into a directory": ["exp2", "--trials", "100", "--out", "{tmp}"],
        # One per value that a constructor or a study refuses.
        "efficiency 0": ["exp1", "--efficiency", "0"],
        "background 1": ["exp1", "--background", "1"],
        "visibility nan": ["exp2", "--visibility", "nan", "--trials", "10"],
        "seed -1": ["exp1", "--seed", "-1"],
        "trials 0": ["exp1", "--trials", "0"],
        "phi-a nan": ["exp1", "--phi-a", "nan", "--trials", "10"],
        "sweep 0:1:0": [*scan1, "--sweep", "0:1:0"],
        "phi-b 1e308": [*scan1, "--phi-b", "1e308"],
        "exp2 scan phi-c 0": [*scan2, "--phi-c", "0"],
        "threshold resolution 0.2": ["threshold", "--expression", "chsh",
                                     "--resolution", "0.2"],
        # Refused by the trial and scan-settings ceilings, before numpy sees them.
        "trials 31 digits": ["exp2", "--trials", "1234567890123456789012345678901",
                             "--seed", "1"],
        "sweep of 31-digit steps": [*scan2, "--sweep", "-1:1:1234567890123456789012345678901"],
    }
    first = {}  # the first golden argv of each subcommand
    for argv, _ in CASES.values():
        first.setdefault(argv[0], argv)
    for command in SUBCOMMANDS:
        errors[f"{command} unwritable --out"] = [*first[command], "--out", "{tmp}/missing/x"]
    cases += [(name, cli + argv, None) for name, argv in errors.items()]
    cases += [(f"library {section}", ["-c", LIBRARY, section], None)
              for section in ("noisy_probabilities", "correlations", "estimates", "bounds")]
    return cases


def run(tree: Path, work: Path, argv: list[str], suffix: str | None) -> list[bytes]:
    """Exit code, stdout, stderr and --out bytes (b"" if none was written)
    of one case under ``tree``, with paths replaced by placeholders."""
    env = dict(os.environ, PYTHONPATH=str(tree), COLUMNS="80")
    command = [sys.executable, *(token.replace("{tmp}", str(work)) for token in argv)]
    out = None if suffix is None else work / f"out{suffix}"
    if out is not None:
        out.unlink(missing_ok=True)
        command += ["--out", str(out)]
    result = subprocess.run(command, capture_output=True, cwd=ROOT, env=env)
    written = out.read_bytes() if out is not None and out.exists() else b""
    fields = [str(result.returncode).encode(), result.stdout, result.stderr, written]
    for path, placeholder in ((tree, b"<src>"), (work, b"<tmp>")):
        fields = [field.replace(str(path).encode(), placeholder) for field in fields]
    return fields


def first_difference(a: list[bytes], b: list[bytes]) -> str | None:
    for label, x, y in zip(("exit code", "stdout", "stderr", "--out"), a, b):
        if x != y:
            offset = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            return f"{label} differs at byte {offset} ({len(x)} vs {len(y)} bytes)"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare outputs with a git revision's.")
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    cases = corpus()
    with tempfile.TemporaryDirectory() as scratch:
        work, rev = Path(scratch) / "work", Path(scratch) / "rev"
        work.mkdir()
        rev.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(rev)], input=archive, check=True)
        for name, text in INPUTS.items():
            (work / name).write_text(text, encoding="utf-8")
        trees = [ROOT / "src", rev / "src"]
        differing = 0
        for index, (name, case_argv, suffix) in enumerate(cases):
            order = trees if index % 2 == 0 else trees[::-1]
            results = {tree: run(tree, work, case_argv, suffix) for tree in order}
            difference = first_difference(*(results[tree] for tree in trees))
            differing += difference is not None
            print(f"{'same' if difference is None else 'DIFFERS':8} {name}"
                  + ("" if difference is None else f": {difference}"), flush=True)
    print(f"{len(cases)} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
