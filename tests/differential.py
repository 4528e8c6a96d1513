"""Differential check of unchanged outputs against another git revision.

    python tests/differential.py --against REV

Unpacks REV's ``src/`` with ``git archive`` into a temporary directory and
runs one fixed corpus under that tree and under this checkout's ``src``:
CLI commands (the golden argvs with and without ``--out``, every
``--help``, the edge verdicts, replays of files written here, and the
error exits) and a seeded library corpus printed as ``float.hex()``.  Each
case runs in a subprocess with ``PYTHONPATH`` set to one tree's ``src``,
``COLUMNS=80`` and the repository root as working directory; the two trees
alternate which runs first.  A case compares exit code, stdout, stderr and
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
}

# Seeded library calls, run as ``python -c LIBRARY SECTION``.
LIBRARY = r"""
import random, sys
from nchvsim import (
    PAIR_OUTCOMES, TRIPLE_OUTCOMES, EstimationError, NoiseModel, PhaseSetting,
    correlation_qm2, correlation_qm3, estimate_correlation_exp1, estimate_correlation_exp2,
    noisy_probability, sample_counts,
)

rng = random.Random(16)
section = sys.argv[1]

def setting(k):
    return PhaseSetting(*(rng.uniform(-13.0, 13.0) for _ in range(k)))

def noise():
    return NoiseModel(rng.uniform(0.0, 1.0), rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.99))

for i in range(400):
    k = 2 + i % 2
    s = setting(k)
    if section == "noisy_probability":
        n = noise()
        print(*(noisy_probability(o, s, n).hex() for o in (PAIR_OUTCOMES, TRIPLE_OUTCOMES)[k - 2]))
    elif section == "correlations":
        print((correlation_qm2 if k == 2 else correlation_qm3)(s).hex())
    else:
        counts = sample_counts(s, noise(), rng.choice((1, 3, 30, 3000)), rng.randrange(2**32))
        try:
            e = (estimate_correlation_exp2 if k == 2 else estimate_correlation_exp1)(counts)
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
    for stem in ("zero_sigma_exp2", "zero_sigma_exp1", "satisfied_exp2"):
        cases.append((f"replay {stem}", cli + ["replay", f"{{tmp}}/{stem}.csv"], ".json"))
    errors = {
        "config unknown key": ["exp1", "--config", "{tmp}/unknown_key.json"],
        "config number out": ["exp2", "--config", "{tmp}/number_out.json"],
        "equal phases": ["exp1", "--phi-a", "0.25", "--phi-a-prime", "0.25", "--trials", "100"],
        "replay non-numeric E": ["replay", "{tmp}/non_numeric_e.csv", "--out", "{tmp}/x.json"],
        "replay missing file": ["replay", "{tmp}/missing.csv"],
        "threshold resolution 1e-13": ["threshold", "--expression", "chsh",
                                       "--resolution", "1e-13"],
        "trials x": ["exp1", "--trials", "x"],
        "out into a directory": ["exp2", "--trials", "100", "--out", "{tmp}"],
    }
    first = {}  # the first golden argv of each subcommand
    for argv, _ in CASES.values():
        first.setdefault(argv[0], argv)
    for command in SUBCOMMANDS:
        errors[f"{command} unwritable --out"] = [*first[command], "--out", "{tmp}/missing/x"]
    cases += [(name, cli + argv, None) for name, argv in errors.items()]
    cases += [(f"library {section}", ["-c", LIBRARY, section], None)
              for section in ("noisy_probability", "correlations", "estimates")]
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
