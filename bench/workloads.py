"""The benchmark's workloads: a config per seed and an accuracy gate each.

Each workload loads a different layer of the package (see README.md).
The bench seed becomes both the problem seed and the run seed. The epoch
budgets fix the run length: 150, about 130 and about 317 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from hessavg.harness import RunResult
from hessavg.optimizers import RunContext

# Gate thresholds, with the values seen for scale.
QUAD_SUBOPT_RATIO = 1e-4  # final / starting suboptimality: 3.2e-5 to 3.7e-5 on seeds 0-4
LOGREG_MAX_LOSS = 0.06  # final full loss: 0.0495 to 0.0543 on seeds 0-23, from 0.693
SUM_MAX_DIST = 1e-10  # final distance to the optimum: 1.5e-16 to 2.5e-16 on seeds 0-13

ONE = {"alpha": {"kind": "constant", "alpha": 1.0}}
THETA_09 = {"theta": {"kind": "constant", "theta": 0.9}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], dict]
    # Returns None when the run is accurate enough, else the reason it is not.
    gate: Callable[[RunResult, RunContext, object], Optional[str]]


def _quad_fan(seed: int) -> dict:
    return {
        "problem": {"kind": "quadratic", "d": 500, "seed": seed},
        "method": {"name": "fan", "mu_tilde": 1e-4, "variant": "plain"},
        "sampling": {"grad": {"mode": "fixed", "size": 256}, "hess": {"kind": "iid", "size": 64}},
        "schedules": ONE,
        "init": {"kind": "near_optimum", "radius": 1.0},
        "epochs": 1.5,
        "seed": seed,
    }


def _quad_gate(result: RunResult, ctx: RunContext, w0) -> Optional[str]:
    f_star = ctx.oracle.optimum()[1]
    start = ctx.oracle.loss_full(w0) - f_star
    final = result.summary["final_f"] - f_star
    if final <= QUAD_SUBOPT_RATIO * start:
        return None
    return f"final suboptimality {final:.3g} above {QUAD_SUBOPT_RATIO:g} x starting {start:.3g}"


def _logreg_dan_ntest(seed: int) -> dict:
    return {
        "problem": {"kind": "synthetic_logistic", "n": 20000, "d": 300, "seed": seed},
        # With dan's default eps=1e-6, rank-1 Hutchinson diagonals near zero
        # blow the first steps up (loss 4e3 on seed 3) and 4 of seeds 0-11
        # end above 0.05 (up to 2.94). A 1e-2 floor keeps every seed tried
        # at 130 steps and below the gate.
        "method": {"name": "dan", "rank": 1, "eps": 1e-2},
        "sampling": {
            "grad": {"mode": "exact_norm_test", "initial_size": 64, "cap": 4096},
            "hess": {"kind": "iid", "size": 256},
        },
        "schedules": {**ONE, **THETA_09},
        "init": {"kind": "zeros"},
        "epochs": 25.0,
        "seed": seed,
    }


def _logreg_gate(result: RunResult, ctx: RunContext, w0) -> Optional[str]:
    final = result.summary["final_f"]
    if final <= LOGREG_MAX_LOSS:
        return None
    return f"final full loss {final:.4g} above {LOGREG_MAX_LOSS:g}"


def _sum_fan_cyclic(seed: int) -> dict:
    return {
        "problem": {
            "kind": "synthetic_sum",
            "n_components": 1024,
            "d": 50,
            "curvature": 2.0,
            "coupling": 0.5,
            "seed": seed,
        },
        "method": {"name": "fan", "mu_tilde": 1e-4, "variant": "plain"},
        "sampling": {
            "grad": {"mode": "exact_norm_test", "initial_size": 32, "a_mode": "inverse_hessian"},
            "hess": {"kind": "cyclic", "size": 16},
        },
        "schedules": {**ONE, **THETA_09},
        "epochs": 300.0,
        "seed": seed,
    }


def _sum_gate(result: RunResult, ctx: RunContext, w0) -> Optional[str]:
    dist = result.summary["final_dist_to_opt"]
    if dist is not None and dist <= SUM_MAX_DIST:
        return None
    return f"final distance to the optimum {dist} above {SUM_MAX_DIST:g}"


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "quad_fan",
            "linalg-bound: one eigh and one Cholesky per step at d=500 take most of the solve; the controller is idle",
            _quad_fan,
            _quad_gate,
        ),
        Workload(
            "logreg_dan_ntest",
            "problems-bound: exact norm test costs a full gradient pass per step over n=20000; no eigh at all",
            _logreg_dan_ntest,
            _logreg_gate,
        ),
        Workload(
            "sum_fan_cyclic",
            "the paper's regime: short steps, many small factorisations, cyclic Hessian blocks, weighted norm test",
            _sum_fan_cyclic,
            _sum_gate,
        ),
    )
}
