"""The pytest settings in pyproject.toml, run on a sample file in a child
pytest: warnings are errors, yet a failing @given test is reported as one
failure and the session goes on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SAMPLE = """\
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass


def test_a_warning_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)
"""


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
    assert "FAILED test_sample.py::test_a_warning_is_an_error" in run.stdout
