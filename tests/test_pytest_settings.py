import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
"""


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # with filterwarnings = ["error"] alone, hypothesis's failure report
    # imported libcst, whose DeprecationWarning became an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_every_integer_is_negative(" in done.stdout
    assert "1 failed" in done.stdout


def test_mistyped_marker_fails_collection(tmp_path):
    # strict markers name the unregistered marker; without them only the
    # error filter on pytest's unknown-mark warning stops the collection
    (tmp_path / "test_marked.py").write_text(
        "import pytest\n\n\n@pytest.mark.acceptanse\ndef test_marked():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_marked.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "'acceptanse' not found in `markers` configuration option" in done.stdout
