"""Mutation check: every listed one-line mutant must make tier-1 fail.

    python tests/mutants.py

Each entry of ``MUTANTS`` is (module, exact source text, replacement,
reason, killing test).  The text must occur exactly once in
``src/nchvsim/<module>.py``, so that a refactor that moves the code fails
loudly instead of skipping the mutant.  Every text is checked before the
first run: if any does not match exactly once, each such entry is printed
as NO MATCH, no mutant is run and the exit status is 1.  For each mutant
the harness copies ``src/``, ``tests/``, ``fixtures/`` and
``pyproject.toml`` into a temporary tree, because ``tests/conftest.py``
points ``PYTHONPATH`` at its own checkout.  It applies the replacement
there and first runs only the killing test, the node id that killed the
mutant in a full run.  If that test passes, or is no longer collected
(printed as STALE), it runs tier-1 with ``-x``, so a SURVIVED verdict
always comes from a full run.  One line is printed per mutant: KILLED with
the first failing test, SURVIVED with the reason the mutant is wrong, or
TIMEOUT if a pytest run lasted longer than ``TIMEOUT_SECONDS``; that run
and every process it started are killed.  The exit status is 1 if any
mutant survives or times out, or if a run ends without naming a failed
test.

The file name keeps it out of pytest's collection.  A mutant whose killing
test still kills it costs one pytest start-up, not one tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "pyproject.toml")
# pytest's exit status when a node id given on its command line is not collected.
NOT_FOUND_EXIT = 4
# Far above one tier-1 run (about a minute), so only a hanging mutant reaches it.
TIMEOUT_SECONDS = 900

MUTANTS = [
    ("reports", "violated = abs(value) > test.bound", "violated = abs(value) >= test.bound",
     "a value exactly at the classical bound is reported as a violation",
     "tests/test_reports.py::test_replay_exactly_at_the_classical_bound_is_satisfied"),
    ("nchv", "if not 0 <= index < size:", "if not 0 <= index <= size:",
     "an index equal to the grid size reads a phase the grid does not have",
     "tests/test_nchv.py::test_classical_bound_validates_indices"),
    ("reports", "return abs(x - target) <= 1e-9", "return abs(x - target) <= 1e-6",
     "a replay phase 1e-7 off the grid is matched to it",
     "tests/test_reports.py::"
     "test_replay_rejects_unusable_fields_with_line_numbers[exp2-phi_b-1e-7-off-the-grid]"),
    ("reports", "if len(set(has_c)) > 1:", "if False:",
     "a file mixing exp1 and exp2 rows fails with a matcher message instead",
     "tests/test_reports.py::test_replay_parse_errors_carry_line_numbers"),
    ("errors", "if value not in (-1, +1):", "if value not in (-1, 0, +1):",
     "Outcome, ExpressionTerm and the forcing functions accept a sign of 0",
     "tests/test_experiment.py::test_outcome_and_setting_validation"),
    ("errors", "if type(value) is not int:", "if False:",
     "True and 1.0 are accepted as signs, and 1.0 leaks into products",
     "tests/test_experiment.py::test_outcome_and_setting_validation"),
    ("montecarlo", "if self.trials <= 0:", "if self.trials < 0:",
     "CoincidenceCounts accepts 0 trials",
     "tests/test_montecarlo.py::test_counts_consistency_validation"),
    ("montecarlo",
     "if not isinstance(self.counts, tuple) or len(self.counts) != n_outcomes:",
     "if not isinstance(self.counts, tuple):",
     "CoincidenceCounts accepts a tuple of the wrong length",
     "tests/test_montecarlo.py::"
     "test_counts_must_be_a_tuple_with_one_entry_per_outcome[4-tuple-at-a-triple-setting]"),
    ("montecarlo", "counts.counts[:4]", "counts.counts[:8]",
     "the estimator reads the unmonitored A=-1 channels of a triple setting too",
     "tests/test_cli.py::"
     "test_estimator_without_usable_events_exits_2"
     "[argv0-error: no A=+1 coincidences recorded; cannot estimate\\n]"),
    ("montecarlo", "if analyzers == 3", "if analyzers == 2",
     "an exp1 run without A=+1 events reports the exp2 message, and the reverse",
     "tests/test_cli.py::"
     "test_estimator_without_usable_events_exits_2"
     "[argv0-error: no A=+1 coincidences recorded; cannot estimate\\n]"),
    ("nchv", "free = sizes.index(max(sizes))", "free = 0",
     "classical_bound always optimizes block a, so it may enumerate the two largest blocks",
     "tests/test_classical_bound.py::"
     "test_bound_reading_every_phase_of_2x11x11_optimizes_a_largest_block"),
    ("nchv", "constraints = tuple(p for sign, p in signed if sign < 0)",
     "constraints = tuple(p for sign, p in signed if sign > 0)",
     "the forcing table is keyed by the +1 term's product, not the three constraints",
     "tests/test_acceptance.py::test_criterion_ghz_contradiction"),
    ("reports", "nchv_lower_bound=sum(r.e_est for r in forcing) - test.bound,",
     "nchv_lower_bound=sum(r.e_est for r in forcing),",
     "the NCHV lower bound omits the classical bound",
     "tests/test_acceptance.py::test_criterion_replay_published_values"),
    ("cli", 'name in ("help", "config")', 'name in ("help",)',
     "a config file may name another config file, which is never read",
     "tests/test_cli.py::test_config_file_may_not_set_config_or_help[config]"),
    ("reports", "if not record or all(not text.strip() for text in record):", "if not record:",
     "a replay record of blank fields, such as ',,,,', fails to parse instead of being skipped",
     "tests/test_reports.py::test_replay_skips_records_whose_fields_are_all_blank"),
    ("reports", "/ 2.0) < MIN_SIGN_COUNT:", "/ 2.0) <= MIN_SIGN_COUNT:",
     "a setting with exactly MIN_SIGN_COUNT events of the rarer sign is not assessed",
     "tests/test_reports.py::"
     "test_simulated_significance_needs_exactly_five_events_of_each_sign[0.0-True]"),
    ("montecarlo", "if not -1.0 <= self.value <= 1.0:", "if False:",
     "CorrelationEstimate accepts a correlation outside [-1, 1]",
     "tests/test_montecarlo.py::"
     "test_degenerate_estimates_are_rejected[CorrelationEstimate-args7]"),
    ("montecarlo", "if self.n <= 0:", "if False:",
     "CorrelationEstimate accepts a sample size of 0",
     "tests/test_montecarlo.py::"
     "test_degenerate_estimates_are_rejected[CorrelationEstimate-args8]"),
    ("reports", "math.fsum(r.sigma * r.sigma for r in rows)", "math.fsum(r.sigma for r in rows)",
     "the inequality sigma adds the row sigmas instead of their squares",
     "tests/test_acceptance.py::test_criterion_replay_published_values"),
    ("cli", "if len(parts) != 3:", "if False:",
     "a --sweep of two parts ends in an IndexError traceback instead of a usage error",
     "tests/test_cli.py::test_usage_error_exits_1_with_its_own_message[sweep-parts]"),
    ("cli", 'if path == "":', "if False:",
     "--config \"\" is reported as a missing file named '' instead of a missing path",
     "tests/test_cli.py::test_usage_error_exits_1_with_its_own_message[config-empty]"),
    ("cli", "if not isinstance(values, dict):", "if False:",
     "a config file holding a JSON list ends in an AttributeError traceback",
     "tests/test_cli.py::test_usage_error_exits_1_with_its_own_message[config-list]"),
    ("nchv", "if len(products) != 1:", "if False:",
     "constraints that force two products end in an unpacking ValueError",
     "tests/test_nchv.py::test_enumerated_forcing_refuses_constraints_that_force_two_products"),
    ("experiment", "if setting.analyzers != k:", "if False:",
     "a per-setting function projects a setting of the other configuration",
     "tests/test_experiment.py::test_outcome_and_setting_validation"),
    ("experiment", "if outcome is not None and (outcome.c is None) != (k == 2):", "if False:",
     "a per-outcome function reads a pair outcome at a triple setting or the reverse",
     "tests/test_experiment.py::test_outcome_and_setting_validation"),
    ("experiment", "(table * route.products).sum().item()", "table.sum().item()",
     "every projected correlation is the probability sum, 1, whatever the phases",
     "tests/test_acceptance.py::test_criterion_closed_form_agreement"),
    ("experiment", "@functools.cached_property", "@property",
     "a setting projects itself again on every read",
     "tests/test_projection.py::"
     "test_outcomes_and_correlation_of_a_new_setting_cost_one_projection"),
    ("nchv", "np.abs(acc[1:], out=acc[1:])", "acc[1:]",
     "a free phase no longer takes the sign that makes its terms' sum positive",
     "tests/test_classical_bound.py::test_classical_bound_equals_brute_force"),
    ("montecarlo", "if trials > MAX_TRIALS:", "if trials >= MAX_TRIALS:",
     "sample_counts refuses a run of exactly MAX_TRIALS trials",
     "tests/test_cli.py::test_trial_ceiling_is_the_largest_accepted_count[at-ceiling]"),
    ("reports", "if steps * len(fixed) > MAX_SCAN_SETTINGS:",
     "if steps * len(fixed) >= MAX_SCAN_SETTINGS:",
     "scan_phase refuses a scan of exactly MAX_SCAN_SETTINGS settings",
     "tests/test_cli.py::test_scan_settings_ceiling_is_the_largest_accepted_scan[at-ceiling]"),
]


def first_failure(output: str) -> str | None:
    """The first test that pytest's short summary names as FAILED or ERROR."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return None


def run_pytest(tree: Path, *args: str) -> tuple[int | None, str]:
    """Exit code and output of ``pytest -x`` in ``tree`` against its own
    ``src``; the code is None if the run timed out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(timeout=TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)  # pytest and what it started
            process.communicate()
            return None, ""
    return process.returncode, stdout + stderr


def run_mutant(module: str, source: str, replacement: str,
               node: str) -> tuple[int | None, str, bool]:
    """Exit code and output of the run that decides the mutant: ``node``
    alone if it fails or times out, else tier-1.  The flag is true if
    ``node`` was not collected."""
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
        code, output = run_pytest(tree, node)
        stale = code == NOT_FOUND_EXIT
        if code is None or first_failure(output) is not None:
            return code, output, stale
        return (*run_pytest(tree), stale)


def label(module: str, source: str, replacement: str) -> str:
    return f"{module}: {source!r} -> {replacement!r}"


def main() -> int:
    unmatched = 0
    for module, source, replacement, _, _ in MUTANTS:
        matches = (ROOT / "src" / "nchvsim" / f"{module}.py").read_text("utf-8").count(source)
        if matches != 1:
            print(f"NO MATCH  {label(module, source, replacement)}: "
                  f"the source text occurs {matches} times", flush=True)
            unmatched += 1
    if unmatched:
        print(f"{len(MUTANTS)} mutants, {unmatched} without exactly one match; none run")
        return 1
    faults = 0
    for module, source, replacement, reason, node in MUTANTS:
        name = label(module, source, replacement)
        start = time.perf_counter()
        code, output, stale = run_mutant(module, source, replacement, node)
        if stale:
            print(f"STALE     {name}: {node} is not collected; ran tier-1", flush=True)
        seconds = f"{time.perf_counter() - start:.0f} s"
        failure = first_failure(output)
        if code is None:
            print(f"TIMEOUT   {name} ({seconds}): a pytest run took over "
                  f"{TIMEOUT_SECONDS} s", flush=True)
            faults += 1
        elif code == 0:
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
