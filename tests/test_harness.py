"""The tier-1 run's own set-up: pyproject.toml's pytest settings and conftest.py."""

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SUBPROCESS_ENV

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_runs_after():
    pass
"""


def test_failing_property_test_reports_its_example(tmp_path):
    """Where libcst is installed, hypothesis imports it to report a failure,
    and its DeprecationWarning, an error under filterwarnings, ended the run
    in INTERNALERROR before the falsifying example or any later test."""
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    shutil.copy(TESTS / "conftest.py", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in result.stdout
    assert result.stdout.splitlines()[-1].startswith("1 failed, 1 passed in "), output
