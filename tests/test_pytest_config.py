"""The repository's pytest settings report a failing property test.

``filterwarnings = ["error"]`` turns every warning into an error, including
a ``DeprecationWarning`` that hypothesis's pytest plugin meets (through a
third-party package) while it reports a falsifying example. Unignored, that
warning ends the session with an INTERNALERROR and exit code 3, and the
example is lost. The check runs pytest on this configuration in a fresh
process.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
