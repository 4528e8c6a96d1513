"""Mutation check: every listed one-line mutant must make tier-1 fail.

    python tests/mutants.py

Each entry of ``MUTANTS`` is (module, exact source text, replacement,
reason).  The text must occur exactly once in ``src/nchvsim/<module>.py``,
so that a refactor that moves the code fails loudly instead of skipping
the mutant.  Every text is checked before the first run: if any does not
match exactly once, each such entry is printed as NO MATCH, no mutant is
run and the exit status is 1.  For each mutant the harness copies
``src/``, ``tests/``, ``fixtures/`` and ``pyproject.toml`` into a
temporary tree, because ``tests/conftest.py`` points ``PYTHONPATH`` at its
own checkout.  It applies the replacement there and runs tier-1 with
``-x``.  One line is printed per mutant: KILLED with the first failing
test, or SURVIVED with the reason the mutant is wrong.  The exit status is
1 if any mutant survives or if a run ends without naming a failed test.

The file name keeps it out of pytest's collection.  Each mutant costs up to
one tier-1 run, so CI runs this as its own job.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml")

MUTANTS = [
    ("reports", "violated = abs(value) > test.bound", "violated = abs(value) >= test.bound",
     "a value exactly at the classical bound is reported as a violation"),
    ("nchv", "if not 0 <= index < size:", "if not 0 <= index <= size:",
     "an index equal to the grid size reads a phase the grid does not have"),
    ("reports", "return abs(x - target) <= 1e-9", "return abs(x - target) <= 1e-6",
     "a replay phase 1e-7 off the grid is matched to it"),
    ("reports", "if len(set(has_c)) > 1:", "if False:",
     "a file mixing exp1 and exp2 rows fails with a matcher message instead"),
    ("errors", "if value not in (-1, +1):", "if value not in (-1, 0, +1):",
     "Outcome, ExpressionTerm and the forcing functions accept a sign of 0"),
    ("errors", "if type(value) is not int:", "if False:",
     "True and 1.0 are accepted as signs, and 1.0 leaks into products"),
    ("montecarlo", "if self.trials <= 0:", "if self.trials < 0:",
     "CoincidenceCounts accepts 0 trials"),
    ("montecarlo",
     "if not isinstance(self.counts, tuple) or len(self.counts) != n_outcomes:",
     "if not isinstance(self.counts, tuple):",
     "CoincidenceCounts accepts a tuple of the wrong length"),
    ("montecarlo", "counts.counts[:4]", "counts.counts[:8]",
     "the exp1 estimator reads the unmonitored A=-1 channels too"),
    ("nchv", "free = max(range(3), key=lambda k: len(used[k]))", "free = 0",
     "classical_bound always optimizes block a, so it may enumerate the two largest blocks"),
    ("nchv", "constraints = tuple(p for sign, p in signed if sign < 0)",
     "constraints = tuple(p for sign, p in signed if sign > 0)",
     "the forcing table is keyed by the +1 term's product, not the three constraints"),
    ("reports", "nchv_lower_bound=sum(r.e_est for r in forcing) - test.bound,",
     "nchv_lower_bound=sum(r.e_est for r in forcing),",
     "the NCHV lower bound omits the classical bound"),
    ("cli", 'name in ("help", "config")', 'name in ("help",)',
     "a config file may name another config file, which is never read"),
    ("reports", "if not record or all(not text.strip() for text in record):", "if not record:",
     "a replay record of blank fields, such as ',,,,', fails to parse instead of being skipped"),
    ("reports", "/ 2.0) < MIN_SIGN_COUNT:", "/ 2.0) <= MIN_SIGN_COUNT:",
     "a setting with exactly MIN_SIGN_COUNT events of the rarer sign is not assessed"),
    ("montecarlo", "if not -1.0 <= self.value <= 1.0:", "if False:",
     "CorrelationEstimate accepts a correlation outside [-1, 1]"),
    ("montecarlo", "if self.n <= 0:", "if False:",
     "CorrelationEstimate accepts a sample size of 0"),
    ("montecarlo", "if n <= 0:", "if False:",
     "counting_sigma divides by a sample size of 0"),
    ("montecarlo", "if counts.setting.analyzers != 2:", "if False:",
     "the exp2 estimator averages the triple products of three-analyzer counts"),
    ("reports", "math.fsum(r.sigma * r.sigma for r in rows)", "math.fsum(r.sigma for r in rows)",
     "the inequality sigma adds the row sigmas instead of their squares"),
]


def first_failure(output: str) -> str | None:
    """The first test that pytest's short summary names as FAILED or ERROR."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return None


def run_mutant(module: str, source: str, replacement: str) -> tuple[int, str]:
    """Exit code of tier-1 on a mutated copy of the tree, and its output."""
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        path = tree / "src" / "nchvsim" / f"{module}.py"
        path.write_text(path.read_text("utf-8").replace(source, replacement), "utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        return result.returncode, result.stdout + result.stderr


def label(module: str, source: str, replacement: str) -> str:
    return f"{module}: {source!r} -> {replacement!r}"


def main() -> int:
    unmatched = 0
    for module, source, replacement, _ in MUTANTS:
        matches = (ROOT / "src" / "nchvsim" / f"{module}.py").read_text("utf-8").count(source)
        if matches != 1:
            print(f"NO MATCH  {label(module, source, replacement)}: "
                  f"the source text occurs {matches} times", flush=True)
            unmatched += 1
    if unmatched:
        print(f"{len(MUTANTS)} mutants, {unmatched} without exactly one match; none run")
        return 1
    faults = 0
    for module, source, replacement, reason in MUTANTS:
        name = label(module, source, replacement)
        start = time.perf_counter()
        code, output = run_mutant(module, source, replacement)
        seconds = f"{time.perf_counter() - start:.0f} s"
        failure = first_failure(output)
        if code == 0:
            print(f"SURVIVED  {name} ({seconds}): {reason}", flush=True)
            faults += 1
        elif failure is None:
            print(f"ERROR     {name} ({seconds}): pytest exited {code} without a failed test",
                  flush=True)
            print(output[-2000:], flush=True)
            faults += 1
        else:
            print(f"KILLED    {name} ({seconds}) by {failure}", flush=True)
    print(f"{len(MUTANTS)} mutants, {faults} not killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
