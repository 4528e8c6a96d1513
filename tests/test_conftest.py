"""The test setup in ``conftest.py`` keeps a failing hypothesis test from
ending the run: every test after it still runs and is counted."""

import shutil
import subprocess
import sys
from pathlib import Path

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_given_test_leaves_the_later_tests_running(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "1 failed, 1 passed" in result.stdout, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout
