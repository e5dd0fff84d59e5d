"""No hessavg process loads scipy.

The logistic link is computed with numpy, and ``linalg`` calls ``dsyevr``,
``dpotrf`` and ``dpotrs`` in the OpenBLAS numpy links, so no run needs
scipy, whatever its method. The runs are checked in a fresh interpreter,
since this one has loaded scipy already (the tests compare against it); the
source check keeps a scipy import from coming back anywhere in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = sorted((SRC / "hessavg").glob("*.py"))

LOGISTIC = {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 0}
QUADRATIC = {"kind": "quadratic", "d": 12, "seed": 1}
# curvature > 0: the optimum is polished by Newton steps through spd_solve
RIPPLED_SUM = {"kind": "synthetic_sum", "n_components": 16, "d": 6, "curvature": 1.0, "seed": 0}
HESS = {"hess": {"kind": "iid", "size": 8}}
ALPHA = {"alpha": {"kind": "constant", "alpha": 0.1}}


def _config(problem, method, grad, hess=True):
    return {
        "problem": problem,
        "method": method,
        "sampling": {"grad": grad, **(HESS if hess else {})},
        "schedules": ALPHA,
        "epochs": 0.5,
        "trace_interval": 2,
    }


# Every method, each through a norm test where it can, so the runs read full
# gradients, component gradients and Hessian samples; fan and subnewton
# factor on every step. sgd and adam read no Hessian sampler.
RUNS = {
    "dan": _config(LOGISTIC, {"name": "dan", "eps": 1e-2}, {"mode": "approx_norm_test", "initial_size": 8}),
    "dan2": _config(LOGISTIC, {"name": "dan2", "eps": 1e-2}, {"mode": "exact_norm_test", "initial_size": 8}),
    "adahessian": _config(LOGISTIC, {"name": "adahessian"}, {"mode": "fixed", "size": 16}),
    "adam": _config(LOGISTIC, {"name": "adam"}, {"mode": "fixed", "size": 16}, hess=False),
    "sgd": _config(QUADRATIC, {"name": "sgd"}, {"mode": "fixed", "size": 16}, hess=False),
    "sgd on a rippled sum": _config(RIPPLED_SUM, {"name": "sgd"}, {"mode": "fixed", "size": 8}, hess=False),
    "subnewton": _config(LOGISTIC, {"name": "subnewton"}, {"mode": "exact_norm_test", "initial_size": 8}),
    "fan": _config(QUADRATIC, {"name": "fan"}, {"mode": "fixed", "size": 16}),
}

SCRIPT = """
import json, sys
from hessavg import linalg
from hessavg.harness import ExperimentConfig, run_experiment

seen = {}
for name, raw in json.loads(sys.argv[1]).items():
    run_experiment(ExperimentConfig.from_dict(raw))
    seen[name] = {
        "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        "lapack bound": linalg._lapack.cache_info().currsize == 1,
    }
print(json.dumps(seen))
"""


def test_no_run_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(RUNS)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert {name: s["scipy"] for name, s in seen.items()} == dict.fromkeys(RUNS, [])
    # the rippled sum's optimum is the first factorization of the process
    assert [s["lapack bound"] for s in seen.values()] == [False] * 5 + [True] * 3


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    return [] if node.level else [node.module.split(".")[0]]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_module_imports_scipy(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in _imported_roots(node)
    ]
    assert not lines, f"{path.name} imports scipy on lines {sorted(lines)}"
