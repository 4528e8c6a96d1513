"""Byte-for-byte CLI outputs pinned in ``tests/golden``.

Each case runs the CLI from the repository root (replay reports echo the
relative ``fixtures/...`` path as their source) and compares stdout and,
where the case writes one, the ``--out`` file with the stored bytes.  The
tests start the CLI as ``python -m nchvsim.cli``; ``golden_mismatch``
takes any command, such as the installed ``nchvsim`` script.  The stored
files were produced by the same commands; they are not regenerated when
the code changes.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, suffix of the --out file or None for stdout only)
CASES = {
    "replay_exp1": (["replay", "fixtures/exp1_reference.csv"], ".json"),
    "replay_exp2": (["replay", "fixtures/exp2_reference.csv"], ".json"),
    "exp1": (["exp1", "--visibility", "0.885", "--trials", "10000", "--seed", "3"], ".json"),
    "exp2": (["exp2", "--visibility", "0.92", "--trials", "5000", "--seed", "4"], ".json"),
    # The verdict's other branches: too few events of one sign, outcomes
    # that never vary, and no violation.
    "exp2_few_trials": (["exp2", "--trials", "5", "--seed", "3"], ".json"),
    "exp1_deterministic": (["exp1", "--trials", "10000", "--seed", "1"], ".json"),
    "exp2_satisfied": (
        ["exp2", "--visibility", "0.6", "--trials", "5000", "--seed", "4"], ".json"
    ),
    "bound_chsh": (["nchv-bound", "--expression", "chsh"], ".json"),
    "bound_mermin": (["nchv-bound", "--expression", "mermin"], ".json"),
    "threshold_chsh": (["threshold", "--expression", "chsh"], ".json"),
    "threshold_mermin": (["threshold", "--expression", "mermin"], ".json"),
    "scan_exp1": (
        ["scan", "--experiment", "exp1", "--trials", "2000", "--seed", "9",
         "--sweep", "-1:1:7", "--phi-b", "0,0.5"],
        None,
    ),
    "scan_exp2": (
        ["scan", "--experiment", "exp2", "--trials", "2000", "--seed", "9",
         "--sweep", "-1:1:7", "--phi-b", "0,0.5", "--efficiency", "0.3",
         "--visibility", "0.9", "--background", "0.05"],
        None,
    ),
}


CLI = (sys.executable, "-m", "nchvsim.cli")


def run_case(name, out_dir, command=CLI):
    """Run one case with ``command``, the argv that starts the CLI; returns
    the exit code, stdout and stderr bytes, and the --out bytes (None if
    the case writes no file or the file is missing)."""
    argv, suffix = CASES[name]
    out = None if suffix is None else out_dir / f"{name}{suffix}"
    extra = [] if out is None else ["--out", str(out)]
    result = subprocess.run([*command, *argv, *extra], capture_output=True, cwd=ROOT)
    written = out.read_bytes() if out is not None and out.exists() else None
    return result.returncode, result.stdout, result.stderr, written


def golden_mismatch(name, out_dir, command=CLI):
    """None if case ``name``, started by ``command``, exits 0 with nothing
    on stderr and writes the golden stdout and --out bytes; else what
    differs."""
    code, stdout, stderr, written = run_case(name, out_dir, command)
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr.decode(errors='replace')!r}"
    if stdout != (GOLDEN / f"{name}.stdout").read_bytes():
        return "stdout differs from the golden bytes"
    suffix = CASES[name][1]
    if suffix is not None and written != (GOLDEN / f"{name}{suffix}").read_bytes():
        return "--out file differs from the golden bytes"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(tmp_path, name):
    assert golden_mismatch(name, tmp_path) is None


# The first child seed of the exp1 golden (seed 3, 4 settings) and of the
# scan_exp2 golden (seed 9, 14 settings), as reports._setting_seeds derives
# it, with the first draws that sample_counts makes from it at that golden's
# trials and efficiency.
STREAM = [
    (3, 4, 12467808127879573787, 10000, 1.0,
     10000, ["0x1.d09175a98f133p-1", "0x1.29b7a4a8437c8p-1", "0x1.cf53b1f337105p-1"]),
    (9, 14, 18364911077201671484, 2000, 0.3,
     617, ["0x1.08e6554c59600p-8", "0x1.67994f27d5121p-1", "0x1.138c024c0fc74p-1"]),
]


@pytest.mark.parametrize("seed, settings, child, trials, efficiency, detected, draws", STREAM)
def test_numpy_random_stream_behind_the_goldens_is_unchanged(
        seed, settings, child, trials, efficiency, detected, draws):
    changed = (f"numpy's random stream changed (numpy {np.__version__} is installed; the "
               "goldens were written with numpy 2.4.6), so the goldens no longer pin this code")
    state = np.random.SeedSequence(seed).generate_state(settings, dtype=np.uint64)
    assert int(state[0]) == child, changed
    rng = np.random.default_rng(child)
    assert int(rng.binomial(trials, efficiency)) == detected, changed
    assert [float(x).hex() for x in rng.random(len(draws))] == draws, changed


if __name__ == "__main__":
    # Write the golden files from the current code:
    #   PYTHONPATH=src python tests/test_golden.py
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            code, stdout, stderr, written = run_case(case, Path(scratch))
            assert code == 0 and stderr == b"", stderr.decode()
            (GOLDEN / f"{case}.stdout").write_bytes(stdout)
            if written is not None:
                (GOLDEN / f"{case}{CASES[case][1]}").write_bytes(written)
