"""What a hessavg process loads: scipy only once a run factors a matrix.

``linalg`` imports scipy's LAPACK on its first eigensolve or factorization,
and the logistic link is computed with numpy, so a run whose method factors
nothing never loads scipy. The runs are checked in a fresh interpreter,
since this one has loaded scipy already; the source check keeps a
module-level scipy import from coming back.
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


# Every method that keeps no full Hessian, each through a norm test where it
# can, so the runs read full gradients, component gradients and Hessian
# samples. sgd and adam read no Hessian sampler.
FACTOR_FREE = {
    "dan": _config(LOGISTIC, {"name": "dan", "eps": 1e-2}, {"mode": "approx_norm_test", "initial_size": 8}),
    "dan2": _config(LOGISTIC, {"name": "dan2", "eps": 1e-2}, {"mode": "exact_norm_test", "initial_size": 8}),
    "adahessian": _config(LOGISTIC, {"name": "adahessian"}, {"mode": "fixed", "size": 16}),
    "adam": _config(LOGISTIC, {"name": "adam"}, {"mode": "fixed", "size": 16}, hess=False),
    "sgd": _config(QUADRATIC, {"name": "sgd"}, {"mode": "fixed", "size": 16}, hess=False),
}
FAN = _config(QUADRATIC, {"name": "fan"}, {"mode": "fixed", "size": 16})

SCRIPT = """
import json, sys
from hessavg import optimizers
from hessavg.harness import ExperimentConfig, build_context, run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

factor_free, fan = json.loads(sys.argv[1])
seen = {}
for name, raw in factor_free.items():
    run_experiment(ExperimentConfig.from_dict(raw))
    seen[name] = scipy_modules()
ctx, w0 = build_context(ExperimentConfig.from_dict(fan))
seen["fan built"] = scipy_modules()
optimizers.step(ctx, optimizers.init_state(ctx.method, ctx.oracle, w0))
seen["fan stepped"] = scipy_modules()
print(json.dumps(seen))
"""


def test_only_a_factorization_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([FACTOR_FREE, FAN])], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    for name in [*FACTOR_FREE, "fan built"]:
        assert seen[name] == [], name
    assert "scipy.linalg" in seen["fan stepped"]


def _module_level_imports(tree):
    """Import statements that run when the module is imported: those outside
    any function body (class bodies and ``if``/``try`` blocks included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    return [] if node.level else [node.module.split(".")[0]]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_no_module_imports_scipy_at_import(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in _module_level_imports(tree) if "scipy" in _imported_roots(node)]
    assert not lines, f"{path.name} imports scipy at module level on lines {sorted(lines)}"
