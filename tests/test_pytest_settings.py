"""The repository's pytest settings report every failure: a failing
property test does not stop the run before the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_FAILURES = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_property_test_leaves_the_run_going(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_FAILURES)
    # run in tmp_path, so hypothesis's example database is made there
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed" in run.stdout
