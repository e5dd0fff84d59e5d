"""Golden ``trace.csv`` digests: refactors must leave every trace byte-identical.

Each config is small (d <= 20, n <= 400) and the set covers all seven
methods, the fixed, geometric, exact and approximate gradient modes, both
Hessian samplers, and the inverse-Hessian norm-test weighting. A change
that alters floating-point results on purpose says so and re-pins these
digests in the same change, and keeps the previous traces under
``data/golden_prev/`` so a test can bound how far the floats moved. The
traces as first pinned stay under ``data/golden_anchor/``, so the drift
over all re-pins is bounded too.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from hessavg.harness import ExperimentConfig, run_experiment

ALPHA_05 = {"alpha": {"kind": "constant", "alpha": 0.5}}
ONE = {"alpha": {"kind": "constant", "alpha": 1.0}}
THETA_09 = {"theta": {"kind": "constant", "theta": 0.9}}
SUM_20 = {"kind": "synthetic_sum", "n_components": 64, "d": 20, "curvature": 2.0, "coupling": 0.5, "seed": 2}

GOLDEN = {
    "sgd_quadratic_fixed": (
        {
            "problem": {"kind": "quadratic", "d": 12, "seed": 1},
            "method": {"name": "sgd"},
            "sampling": {"grad": {"mode": "fixed", "size": 16}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.05}},
            "epochs": 0.4,
            "trace_interval": 3,
        },
        "05b77087d0f4049b0a0524163920bc8bc73e0d80cca3ab4dd523c2054cbed200",
    ),
    "adam_logistic_geometric": (
        {
            "problem": {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 1},
            "method": {"name": "adam"},
            "sampling": {"grad": {"mode": "geometric_epochs", "sizes": [10, 30, 60], "epochs_per_block": 1}},
            "schedules": {"alpha": {"kind": "step_decay", "alpha0": 0.1, "factor": 0.5, "milestones": [20]}},
            "epochs": 3,
            "seed": 4,
        },
        "d36f3ae83f1a9d609066eea1764ff81cfe1c397133ff3a9046456ebd86ff15e0",
    ),
    "subnewton_sum_exact_inverse_hessian": (
        {
            "problem": SUM_20,
            "method": {"name": "subnewton", "mu_tilde": 1e-3},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 4, "a_mode": "inverse_hessian"},
                "hess": {"kind": "iid", "size": 16},
            },
            "schedules": {**ONE, **THETA_09},
            "epochs": 4,
            "trace_interval": 1,
        },
        "25821f669ecadf124bded53c44842561676bdcdd0f1fdd205bffecfdefce573c",
    ),
    "fan_sum_cyclic_exact_inverse_hessian": (
        {
            "problem": SUM_20,
            "method": {"name": "fan", "mu_tilde": 1e-4},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 4, "a_mode": "inverse_hessian"},
                "hess": {"kind": "cyclic", "size": 8},
            },
            "schedules": {**ONE, **THETA_09},
            "epochs": 10,
            "seed": 3,
        },
        "d00183d6bacda5b55fb4eadd8cf7dc6d19c075b314f829b0ac90e52e0048fed1",
    ),
    "fan_abs_logistic_exact_decaying": (
        {
            "problem": {"kind": "synthetic_logistic", "n": 400, "d": 12, "seed": 0},
            "method": {"name": "fan", "variant": "abs", "weights": "decaying", "decay": 0.9, "mu_tilde": 1e-3},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 8},
                "hess": {"kind": "iid", "size": 40},
                "policy": {"warmup": 3, "hf": 2},
            },
            "schedules": {"alpha": {"kind": "two_phase", "alpha_global": 0.5, "k_switch": 10}, **THETA_09},
            "epochs": 3,
            "trace_interval": 2,
        },
        "dabeadeb740304747d5ee23b36428d7d5f41662f11a98df43ad60ffc1bd17b1b",
    ),
    "dan_logistic_approx": (
        {
            "problem": {"kind": "synthetic_logistic", "n": 400, "d": 12, "seed": 3},
            "method": {"name": "dan", "rank": 2, "eps": 1e-2},
            "sampling": {"grad": {"mode": "approx_norm_test", "initial_size": 8}, "hess": {"kind": "iid", "size": 40}},
            "schedules": {**ONE, "theta": {"kind": "constant", "theta": 2.0}},
            "epochs": 8,
            "seed": 1,
        },
        "96a93268b72f60d7eca0b8f897cb32c0a244b797d4faeecccca9c56ba9e1f550",
    ),
    "dan2_quadratic_approx_near_optimum": (
        {
            "problem": {"kind": "quadratic", "d": 16, "seed": 2},
            "method": {"name": "dan2", "weights": "decaying", "decay": 0.95, "eps": 1e-3},
            "sampling": {
                "grad": {"mode": "approx_norm_test", "initial_size": 8, "cap": 256},
                "hess": {"kind": "iid", "size": 8},
            },
            "schedules": {**ALPHA_05, "iota": {"kind": "geometric", "iota0": 1e-3, "a": 0.9}},
            "init": {"kind": "near_optimum", "radius": 0.5},
            "epochs": 0.3,
        },
        "bcb384adf744731898fb6fa602a1ea8e0e9170eeea4404c83a442297930b49bd",
    ),
    "adahessian_sum_cyclic_fixed": (
        {
            "problem": {"kind": "synthetic_sum", "n_components": 32, "d": 8, "curvature": 1.0, "seed": 5},
            "method": {"name": "adahessian", "rank": 1},
            "sampling": {"grad": {"mode": "fixed", "size": 8}, "hess": {"kind": "cyclic", "size": 8, "seed": 7}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.05}},
            "epochs": 4,
            "rolling_f": 3,
        },
        "28b910e86259d2d11e0c3eb377c7a715d8e36f5d7066d2b222e7f348b1f13e80",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden_digest(name, tmp_path):
    raw, digest = GOLDEN[name]
    run_experiment(ExperimentConfig.from_dict(raw), out_dir=str(tmp_path))
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == digest


# Traces pinned before a change that moved floats on purpose: the three
# synthetic-sum traces from before the synthetic sum's full values came
# from its stored means (H̄ w - b̄, not the mean of the N values H_i w - b_i);
# the abs-fan logistic trace from before the logistic dense Hessian became
# one rank-k product; the adam logistic trace from before the logistic
# oracle read its batch out of one blocked pass over X; the two
# approximate-test traces from before a step at the batch cap stopped
# running the test, and so took its batch from ``loss_grad_sub`` and not
# from the mean of ``component_grads``. The counters must not move; the
# floats may move by rounding only.
PREVIOUS = Path(__file__).parent / "data" / "golden_prev"
# All eight traces as first pinned, when the golden digests were added and
# before any re-pin. Each re-pin is checked against its parent's trace
# above; this fixed anchor bounds the drift summed over every re-pin.
ANCHOR = Path(__file__).parent / "data" / "golden_anchor"
EXACT_COLUMNS = ("k", "epoch", "x_size", "s_size", "hvp_probes", "eec")
FLOAT_COLUMNS = ("f", "grad_norm", "dist_to_opt")
RTOL, ATOL = 1e-10, 1e-12


def _read_trace(path):
    header, *rows = path.read_text().splitlines()
    return header, list(csv.DictReader(rows))


def _assert_within_rounding(name, old_trace, tmp_path):
    """Run golden config ``name``: the same header and counters as ``old_trace``, floats within rounding."""
    run_experiment(ExperimentConfig.from_dict(GOLDEN[name][0]), out_dir=str(tmp_path))
    old_header, old_rows = _read_trace(old_trace)
    new_header, new_rows = _read_trace(tmp_path / "trace.csv")
    assert new_header == old_header
    assert len(new_rows) == len(old_rows)
    for old, new in zip(old_rows, new_rows):
        assert list(new) == list(old)
        assert [new[c] for c in EXACT_COLUMNS] == [old[c] for c in EXACT_COLUMNS]
        for c in FLOAT_COLUMNS:
            # grad_norm is blank on the steps between trace snapshots
            assert (new[c] == "") == (old[c] == ""), (c, old["k"])
            if old[c] == "":
                continue
            a, b = float(old[c]), float(new[c])
            assert abs(b - a) <= RTOL * abs(a) + ATOL, (c, old["k"], a, b)


@pytest.mark.parametrize("name", sorted(p.stem for p in PREVIOUS.glob("*.csv")))
def test_trace_within_rounding_of_previous(name, tmp_path):
    _assert_within_rounding(name, PREVIOUS / f"{name}.csv", tmp_path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_within_rounding_of_anchor(name, tmp_path):
    _assert_within_rounding(name, ANCHOR / f"{name}.csv", tmp_path)
