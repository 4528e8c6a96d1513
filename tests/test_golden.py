"""Byte-for-byte CLI outputs pinned in ``tests/golden``.

Each case runs ``python -m nchvsim.cli`` from the repository root (replay
reports echo the relative ``fixtures/...`` path as their source) and
compares stdout and, where the case writes one, the ``--out`` file with the
stored bytes.  The stored files were produced by the same commands; they
are not regenerated when the code changes.
"""

import subprocess
import sys
from pathlib import Path

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


def run_case(name, out_dir):
    """Run one case; returns (stdout bytes, --out bytes or None)."""
    argv, suffix = CASES[name]
    out = None if suffix is None else out_dir / f"{name}{suffix}"
    extra = [] if out is None else ["--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "nchvsim.cli", *argv, *extra],
        capture_output=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    return result.stdout, None if out is None else out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(tmp_path, name):
    stdout, written = run_case(name, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    suffix = CASES[name][1]
    if suffix is not None:
        assert written == (GOLDEN / f"{name}{suffix}").read_bytes()


if __name__ == "__main__":
    # Write the golden files from the current code:
    #   PYTHONPATH=src python tests/test_golden.py
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            stdout, written = run_case(case, Path(scratch))
            (GOLDEN / f"{case}.stdout").write_bytes(stdout)
            if written is not None:
                (GOLDEN / f"{case}{CASES[case][1]}").write_bytes(written)
