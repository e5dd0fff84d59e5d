"""The ``hessavg`` command pins BLAS to one thread before numpy loads.

Each check starts a fresh interpreter, since a BLAS library reads its thread
variables once, when numpy loads, and this process has loaded it already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PYPROJECT = SRC.parent / "pyproject.toml"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG = {
    "problem": {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 0},
    "method": {"name": "fan", "mu_tilde": 1e-3},
    "sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "iid", "size": 25}},
    "schedules": {"alpha": {"kind": "constant", "alpha": 0.5}},
    "epochs": 1,
}


def _python(args, **env):
    """Run ``python args`` on this checkout's source, with no BLAS variable
    set but those in ``env``."""
    child = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    child["PYTHONPATH"] = str(SRC)
    child.update(env)
    done = subprocess.run([sys.executable, *args], env=child, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done


def test_importing_the_package_loads_no_numpy():
    out = _python(["-c", "import sys, hessavg; print('numpy' in sys.modules)"]).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("caller, seen", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")], ids=["unset", "set"])
def test_a_run_uses_one_blas_thread_unless_the_caller_sets_it(tmp_path, caller, seen):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    _python(["-m", "hessavg", "run", str(cfg), "--out", str(tmp_path / "run")], **caller)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["openblas_num_threads"] == seen


def test_the_console_script_is_the_pinning_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts == {"hessavg": "hessavg.__main__:main"}
