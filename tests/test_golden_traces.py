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

from hessavg.harness import ExperimentConfig, _blas_report, run_experiment
from hessavg.trace import parse_trace

# The OpenBLAS core (``harness._blas_report()["blas_core"]``) whose kernels
# made the pinned traces; another core's kernels may round differently.
PINNED_CORE = "SkylakeX"

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
        "e86d549ea009787604f11642521002fe4978f2d8dfba43b31fe96ae0741edba4",
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
        "ebac120814967466e4e5cc6ffc06680b02689abdce68f5377f4d1936cc1e2cf6",
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
        "762df84e0782746aa2245ca61e09e6a288f27228efd5719819a4b8f13b15ee31",
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
        "c7505e032a67fa982f24a8fea0bf9de474ce41d371b2d9cebcb7fdc90a492459",
    ),
    "fan_abs_logistic_exact_decaying": (
        {
            "problem": {"kind": "synthetic_logistic", "n": 400, "d": 12, "seed": 0},
            "method": {"name": "fan", "variant": "abs", "decay": 0.9, "mu_tilde": 1e-3},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 8},
                "hess": {"kind": "iid", "size": 40},
                "policy": {"warmup": 3, "hf": 2},
            },
            "schedules": {"alpha": {"kind": "two_phase", "alpha_global": 0.5, "k_switch": 10}, **THETA_09},
            "epochs": 3,
            "trace_interval": 2,
        },
        "70f18754838d25cf8e2507b08610c68a67acd353e6210b1be7a1d575f23b4640",
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
        "a39b1b209206ac2de0fa6b75c709b86dd8e75f1fba322a7e7d22f8b2d925ebaa",
    ),
    "dan2_quadratic_approx_near_optimum": (
        {
            "problem": {"kind": "quadratic", "d": 16, "seed": 2},
            "method": {"name": "dan2", "decay": 0.95, "eps": 1e-3},
            "sampling": {
                "grad": {"mode": "approx_norm_test", "initial_size": 8, "cap": 256},
                "hess": {"kind": "iid", "size": 8},
            },
            "schedules": {**ALPHA_05, "iota": {"kind": "geometric", "iota0": 1e-3, "a": 0.9}},
            "init": {"kind": "near_optimum", "radius": 0.5},
            "epochs": 0.3,
        },
        "25a4e2c28c28cf11f30bfbddb74777074127d980c51fb2807f76809829177c6d",
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
        "9bdde078017d4d46081829d1f77f041611dfa40e4752503a76996095c7a82cca",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden_digest(name, tmp_path):
    # the config loaded from its own reading runs and hashes as the config
    # as written: a hash covers what runs, and every default a run reads
    raw, digest = GOLDEN[name]
    cfg = ExperimentConfig.from_dict(raw)
    for out, loaded in ((tmp_path / "raw", cfg), (tmp_path / "read", ExperimentConfig.from_dict(cfg.to_dict()))):
        run_experiment(loaded, out_dir=str(out))
        assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == digest, (
            f"OpenBLAS ran its {_blas_report()['blas_core']} kernels; the digests were pinned under {PINNED_CORE}"
        )


# Traces pinned before a change that moved floats on purpose: the two
# synthetic-sum traces of a method that factors (fan and subnewton) from
# before ``dpotrf`` and ``dsyevr`` ran in numpy's OpenBLAS, not in scipy's
# older one, whose Cholesky factors differ in their last bits; the
# synthetic-sum adahessian trace from before the synthetic sum's full values
# came from its stored means (H̄ w - b̄, not the mean of the N values
# H_i w - b_i); the adam and fan logistic traces from before a traced or
# tested logistic step took its batch loss and gradient from
# ``loss_grad_sub``, where they came from the full pass weighted by each
# row's count in the batch, which rounded differently and so made the trace
# interval change a run; the dan logistic trace from before a logistic draw
# of all n rows was ``np.arange(n)``, where it was a random permutation
# whose gathered sums rounded differently from the full pass (its batch
# reaches n=400 at k=4, and its floats moved from k=6 by at most 4.7e-16
# relative); the approximate-test quadratic trace from before a step below
# the batch cap took its batch loss and gradient from ``loss_grad_sub`` and
# not its gradient from the mean of ``component_grads``, which now serve
# the test's variance only. The counters must not move; the floats may move
# by rounding only.
PREVIOUS = Path(__file__).parent / "data" / "golden_prev"
# All eight traces as first pinned, when the golden digests were added and
# before any re-pin. Each re-pin is checked against its parent's trace
# above; this fixed anchor bounds the drift summed over every re-pin.
ANCHOR = Path(__file__).parent / "data" / "golden_anchor"
EXACT_COLUMNS = ("k", "epoch", "x_size", "s_size", "hvp_probes", "eec")
FLOAT_COLUMNS = ("f", "grad_norm", "dist_to_opt")
RTOL, ATOL = 1e-10, 1e-12


def _read_trace(path):
    text = path.read_text()
    return parse_trace(text)[0], list(csv.DictReader(text.splitlines()[1:]))


def _assert_within_rounding(name, old_trace, tmp_path):
    """Run golden config ``name``: the same schema, seed and counters as ``old_trace``, floats within rounding.

    The header's config hash is checked against the config's own: the old
    traces were written when the hash also covered the output directory.
    """
    cfg = ExperimentConfig.from_dict(GOLDEN[name][0])
    run_experiment(cfg, out_dir=str(tmp_path))
    old_meta, old_rows = _read_trace(old_trace)
    new_meta, new_rows = _read_trace(tmp_path / "trace.csv")
    assert (new_meta["schema"], new_meta["seed"]) == (old_meta["schema"], old_meta["seed"])
    assert new_meta["config"] == cfg.hash()
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
