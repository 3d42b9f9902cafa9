"""The project's pytest settings name a failing hypothesis test and run the rest."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, max_examples=5)
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # every warning is an error under the project's filterwarnings, including any that
    # hypothesis's failure report raises inside a pytest hook
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "test_probe.py::test_fails" in run.stdout
