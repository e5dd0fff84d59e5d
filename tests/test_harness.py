import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hessavg.cli import cli_dispatch
from hessavg.data import LibsvmParseError, load_dataset
from hessavg.harness import (
    ConfigError,
    ExperimentConfig,
    build_context,
    estimate_rates,
    run_experiment,
    run_many,
    sweep,
)
from hessavg.trace import parse_trace


def base_config(**overrides):
    raw = {
        "problem": {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 0},
        "method": {"name": "fan", "mu_tilde": 1e-3},
        "sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "iid", "size": 25}},
        "schedules": {"alpha": {"kind": "constant", "alpha": 0.5}},
        "epochs": 2,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# Each case: a pattern the ConfigError message must match, and the config
# keys that replace base_config's.
BAD_BATCH_SETTINGS = {
    "cyclic_hess_size_0": (
        "Hessian sample size",
        {
            "problem": {"kind": "synthetic_sum", "n_components": 8, "d": 4, "seed": 0},
            "sampling": {"grad": {"mode": "fixed", "size": 8}, "hess": {"kind": "cyclic", "size": 0}},
        },
    ),
    "iid_hess_size_0_quadratic": (
        "Hessian sample size",
        {
            "problem": {"kind": "quadratic", "d": 10, "seed": 0},
            "sampling": {"grad": {"mode": "fixed", "size": 4}, "hess": {"kind": "iid", "size": 0}},
        },
    ),
    "iid_hess_size_neg_logistic": (
        "Hessian sample size",
        {"sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "iid", "size": -3}}},
    ),
    "grad_cap_0": (
        "cap",
        {"sampling": {"grad": {"mode": "fixed", "size": 25, "cap": 0}, "hess": {"kind": "iid", "size": 25}}},
    ),
    "geometric_sizes_empty": (
        "sizes",
        {"sampling": {"grad": {"mode": "geometric_epochs", "sizes": []}, "hess": {"kind": "iid", "size": 25}}},
    ),
}


# Each case: a pattern the ConfigError message must match, and the config
# keys that replace base_config's. The value is not a number; int()/float()
# raised a bare TypeError on null, and took true and "12" as numbers.
NOT_A_NUMBER = {
    "epochs_null": ("'epochs' in config", {"epochs": None}),
    "epochs_true": ("'epochs' in config", {"epochs": True}),
    "problem_d_null": ("'d' in problem", {"problem": {"kind": "synthetic_logistic", "n": 300, "d": None}}),
    "problem_d_string": ("'d' in problem", {"problem": {"kind": "synthetic_logistic", "n": 300, "d": "12"}}),
    "grad_size_null": (
        "'size' in grad sampling",
        {"sampling": {"grad": {"mode": "fixed", "size": None}, "hess": {"kind": "iid", "size": 25}}},
    ),
    "hess_size_null": (
        "'size' in hess sampling",
        {"sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "iid", "size": None}}},
    ),
}


# Each case: a pattern the ConfigError message must match, and the config
# keys that replace base_config's. The section is not a JSON object; dict()
# raised a bare TypeError on null and numbers, .get() an AttributeError on
# null and lists, and a null update policy went unread until the run.
HESS_25 = {"kind": "iid", "size": 25}
NOT_AN_OBJECT = {
    "problem": ("'problem' in config", {"problem": None}),
    "method": ("'method' in config", {"method": None}),
    "sampling": ("'sampling' in config", {"sampling": None}),
    "grad": ("'grad' in sampling", {"sampling": {"grad": [], "hess": HESS_25}}),
    "hess": ("'hess' in sampling", {"sampling": {"grad": {"mode": "fixed"}, "hess": None}}),
    "schedules": ("'schedules' in config", {"schedules": 3}),
    "init": ("'init' in config", {"init": None}),
    "policy": ("'policy' in sampling", {"sampling": {"grad": {"mode": "fixed"}, "policy": "fast"}}),
    "alpha": ("'alpha' in schedules", {"schedules": {"alpha": None}}),
}


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"problem": {}, "method": {}, "bogus": 1})

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError):
            base_config(problem={"kind": "nope"})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            base_config(method={"name": "unknown"})

    def test_bad_sampling_mode(self):
        with pytest.raises(ConfigError):
            base_config(sampling={"grad": {"mode": "psychic"}})

    def test_misspelt_a_mode_rejected(self):
        grad = {"mode": "exact_norm_test", "initial_size": 8, "a_mode": "inverse_hesian"}
        with pytest.raises(ConfigError, match="a_mode"):
            base_config(sampling={"grad": grad})

    @pytest.mark.parametrize(
        "method, mode",
        [("dan", "exact_norm_test"), ("fan", "approx_norm_test"), ("subnewton", "fixed")],
    )
    def test_inverse_hessian_needs_exact_test_and_full_matrix(self, method, mode):
        grad = {"mode": mode, "initial_size": 8, "a_mode": "inverse_hessian"}
        with pytest.raises(ConfigError, match="inverse_hessian"):
            base_config(method={"name": method}, sampling={"grad": grad})

    def test_theoretical_mode_rejected(self):
        with pytest.raises(ConfigError, match="theoretical"):
            base_config(sampling={"grad": {"mode": "theoretical"}})

    @pytest.mark.parametrize("case", sorted(BAD_BATCH_SETTINGS))
    def test_bad_batch_setting_rejected(self, case):
        match, overrides = BAD_BATCH_SETTINGS[case]
        with pytest.raises(ConfigError, match=match):
            base_config(**overrides)

    @pytest.mark.parametrize("case", sorted(BAD_BATCH_SETTINGS))
    def test_builders_reject_bad_batch_setting(self, case):
        # an ExperimentConfig made directly skips validate; building it
        # still fails with a ConfigError, before any step runs
        raw = {
            "problem": {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 0},
            "method": {"name": "fan", "mu_tilde": 1e-3},
            **BAD_BATCH_SETTINGS[case][1],
        }
        with pytest.raises(ConfigError):
            build_context(ExperimentConfig(**raw))

    @pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
    def test_numeric_field_that_is_not_a_number_rejected(self, case):
        # the problem and gradient-batch fields are read by the builders,
        # which still run before any step
        match, overrides = NOT_A_NUMBER[case]
        with pytest.raises(ConfigError, match=f"{match} must be a number"):
            build_context(base_config(**overrides))

    @pytest.mark.parametrize("case", sorted(NOT_AN_OBJECT))
    def test_section_that_is_not_an_object_rejected(self, case):
        match, overrides = NOT_AN_OBJECT[case]
        with pytest.raises(ConfigError, match=f"{match} must be an object"):
            base_config(**overrides)

    def test_cli_run_reports_a_null_section(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": {"kind": "synthetic_logistic"}, "method": {"name": "sgd"}, "sampling": None}))
        assert cli_dispatch(["run", str(path), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: 'sampling' in config must be an object")
        path.write_text("null")
        assert cli_dispatch(["run", str(path), "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"sampling": {"grad": {"mode": "fixed", "size": 2.9}, "hess": HESS_25}}, "'size' in grad sampling"),
            ({"trace_interval": 1.7}, "'trace_interval' in config"),
        ],
    )
    def test_integer_field_rejects_a_fraction(self, overrides, match):
        # int() truncated these to a batch of 2 and an interval of 1
        with pytest.raises(ConfigError, match=f"{match} must be an integer, got"):
            build_context(base_config(**overrides))

    def test_integer_field_takes_an_integral_float(self):
        cfg = base_config(sampling={"grad": {"mode": "fixed", "size": 16.0}, "hess": HESS_25}, trace_interval=16.0)
        assert cfg.trace_interval == 16 and isinstance(cfg.trace_interval, int)
        assert build_context(cfg)[0].controller.current_size == 16

    def test_hash_stable_and_sensitive(self):
        assert base_config().hash() == base_config().hash()
        assert base_config().hash() != base_config(seed=1).hash()


class TestRunExperiment:
    def test_zero_epochs_initial_record_only(self):
        result = run_experiment(base_config(epochs=0))
        assert len(result.records) == 1
        assert result.records[0].k == 0

    def test_persists_atomically_and_deterministically(self, tmp_path):
        cfg = base_config()
        r1 = run_experiment(cfg, out_dir=str(tmp_path / "a"))
        r2 = run_experiment(cfg, out_dir=str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "trace.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert csv_a == csv_b
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["config_hash"] == cfg.hash()
        assert summary["seed"] == cfg.seed
        assert summary["final_f"] == pytest.approx(r1.summary["final_f"])

    def test_trace_roundtrip(self, tmp_path):
        cfg = base_config()
        run_experiment(cfg, out_dir=str(tmp_path))
        meta, records = parse_trace((tmp_path / "trace.csv").read_text())
        assert meta["config"] == cfg.hash()
        assert records[0].k == 0
        assert records[-1].grad_norm is not None

    def test_seed_changes_trace(self, tmp_path):
        run_experiment(base_config(), out_dir=str(tmp_path / "a"))
        run_experiment(base_config(seed=5), out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()

    def test_dist_to_opt_populated_iff_optimum_known(self):
        with_opt = run_experiment(
            base_config(problem={"kind": "synthetic_sum", "n_components": 8, "d": 5, "seed": 0})
        )
        assert all(r.dist_to_opt is not None for r in with_opt.records)
        without = run_experiment(base_config())
        assert all(r.dist_to_opt is None for r in without.records)

    def test_rolling_mean_smooths(self):
        bumpy = run_experiment(base_config(epochs=4, rolling_f=0))
        smooth = run_experiment(base_config(epochs=4, rolling_f=25))
        raw = np.array([r.f for r in bumpy.records])
        rolled = np.array([r.f for r in smooth.records])
        assert np.std(np.diff(rolled)) < np.std(np.diff(raw))

    def test_geometric_epoch_sizes_applied(self):
        cfg = base_config(
            epochs=4,
            sampling={
                "grad": {
                    "mode": "geometric_epochs",
                    "sizes": [10, 50],
                    "epochs_per_block": 2,
                },
                "hess": {"kind": "iid", "size": 10},
            },
        )
        result = run_experiment(cfg)
        sizes = {r.epoch // 2: r.x_size for r in result.records[:-1]}
        assert sizes[0.0] == 10
        assert sizes[1.0] == 50


class TestEstimateRates:
    def test_constant_ratio_series(self):
        e = [0.9**k for k in range(60)]
        report = estimate_rates(e, k_start=1)
        assert report.slope == pytest.approx(0.0, abs=1e-9)
        assert report.rho_bar == pytest.approx(0.9, abs=1e-6)

    def test_factorial_series(self):
        e = [1.0 / math.factorial(k) for k in range(20)]
        report = estimate_rates(e, k_start=1)
        assert report.slope == pytest.approx(-1.0, abs=0.02)

    def test_floor_respected(self):
        e = [1e-20] * 40
        with pytest.raises(ValueError, match="usable"):
            estimate_rates(e)

    def test_needs_ten_points(self):
        with pytest.raises(ValueError):
            estimate_rates([0.5**k for k in range(8)])

    def test_window_selection(self):
        e = [0.8**k for k in range(100)]
        report = estimate_rates(e, k_start=10, k_end=50)
        assert report.k_lo == 11
        assert report.k_hi == 50


class TestSweep:
    def test_single_config_single_row(self):
        rows, table = sweep([base_config(epochs=1)])
        assert len(rows) == 1
        assert rows[0]["seeds"] == 1
        assert "mean_final_f" in table.splitlines()[0]

    def test_mean_over_seeds(self):
        configs = [base_config(epochs=1, seed=s) for s in (0, 1)]
        rows, _ = sweep(configs)
        assert len(rows) == 1
        assert rows[0]["seeds"] == 2
        finals = rows[0]["finals"]
        assert rows[0]["mean_final_f"] == pytest.approx(np.mean(finals))

    def test_diverged_marker(self):
        diverging = base_config(
            epochs=1,
            problem={"kind": "quadratic", "d": 60, "keep_prob": 0.5, "seed": 0},
            method={"name": "sgd"},
            schedules={"alpha": {"kind": "constant", "alpha": 1.0}},
            sampling={"grad": {"mode": "fixed", "size": 4}},
        )
        rows, table = sweep([diverging])
        assert rows[0]["diverged"] == 1
        assert "x" in table

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep([])

    @pytest.mark.parametrize("caller, seen", [(None, "1"), ("2", "2")])
    def test_parallel_workers_start_with_one_blas_thread(self, caller, seen, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if caller is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
        configs = [base_config(epochs=0.1, seed=s) for s in (0, 1)]
        summaries = run_many(configs, parallel=2)
        assert [s["openblas_num_threads"] for s in summaries] == [seen, seen]
        assert os.environ.get("OPENBLAS_NUM_THREADS") == caller
        assert "OMP_NUM_THREADS" not in os.environ

    def test_parallel_matches_serial(self):
        configs = [base_config(epochs=1, seed=s) for s in (0, 1)]
        serial, _ = sweep(configs, parallel=1)
        parallel, _ = sweep(configs, parallel=2)
        assert serial[0]["finals"] == parallel[0]["finals"]


def _write_mushrooms_like(path, n_rows=8124, seed=12345):
    """A LIBSVM file shaped like the ``mushrooms`` manifest, written offline.

    It has the manifest's 8,124 rows unless ``n_rows`` says otherwise.
    Each row one-hot encodes 22 categorical attributes (20 with 5 values,
    2 with 6), so 22 of the 112 features are set. The label is 1 or 2 from
    a fixed integer linear rule plus a small integer noise. Every value
    comes from a 64-bit LCG in Python integers, so the file is the same
    byte for byte on any platform and numpy version.
    """
    cards = [5] * 20 + [6] * 2
    offsets = [sum(cards[:j]) for j in range(len(cards))]
    weights = [(7 * f) % 13 - 6 for f in range(sum(cards))]
    state = seed
    lines = []
    for _ in range(n_rows):
        features = []
        for offset, card in zip(offsets, cards):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            features.append(offset + (state >> 33) % card)
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        score = sum(weights[f] for f in features) + (state >> 33) % 9 - 4
        label = 1 if score >= 0 else 2
        lines.append(" ".join([str(label)] + [f"{f + 1}:1" for f in features]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


class TestRealDataPath:
    # Taken with a loader that did not yet compare the row count with the
    # manifest and loads this file the same way, so the pin guards the
    # parsed form, the split and the run together.
    TRACE_SHA256 = "4652edd581f0f18253215e23e21d5a3ccf00d06abe7b0cb7870409d742aa0917"

    @pytest.mark.parametrize("n_rows", [5600, 8125])
    def test_a_file_with_another_row_count_is_refused(self, tmp_path, n_rows):
        _write_mushrooms_like(tmp_path / "mushrooms" / "mushrooms", n_rows=n_rows)
        with pytest.raises(LibsvmParseError, match=f"parsed {n_rows} rows, but the manifest declares 8124"):
            load_dataset("mushrooms", tmp_path)

    def test_logistic_dataset_runs_end_to_end_offline(self, tmp_path):
        # fetch_dataset reuses a cached file, so nothing is downloaded
        _write_mushrooms_like(tmp_path / "data" / "mushrooms" / "mushrooms")
        cfg = {
            "problem": {"kind": "logistic", "dataset": "mushrooms"},
            "method": {"name": "fan", "mu_tilde": 1e-3},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 64},
                "hess": {"kind": "iid", "size": 256},
            },
            "schedules": {"alpha": {"kind": "constant", "alpha": 1.0}, "theta": {"kind": "constant", "theta": 0.9}},
            "init": {"kind": "zeros"},
            "epochs": 1,
            "trace_interval": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert cli_dispatch(["run", str(path), "--out", str(out), "--data-dir", str(tmp_path / "data")]) == 0
        assert json.loads((out / "summary.json").read_text())["diverged"] is False
        digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256


class TestCli:
    def test_eec_table_value(self, capsys):
        assert cli_dispatch(["eec", "--epochs", "1000", "--rank", "1", "--hf", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1202"

    def test_eec_first_order(self, capsys):
        assert cli_dispatch(["eec", "--epochs", "500"]) == 0
        assert capsys.readouterr().out.strip() == "500"

    def test_missing_config_is_usage_error(self, capsys):
        assert cli_dispatch(["run", "missing.cfg"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"problem": {"kind": "nope"}, "method": {"name": "sgd"}}))
        assert cli_dispatch(["run", str(bad)]) == 1

    def test_bad_batch_setting_is_usage_error(self, tmp_path, capsys):
        raw = {"method": {"name": "fan", "mu_tilde": 1e-3}, **BAD_BATCH_SETTINGS["cyclic_hess_size_0"][1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_dispatch(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(NOT_A_NUMBER))
    def test_numeric_field_that_is_not_a_number_is_usage_error(self, case, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base_config().to_dict(), **NOT_A_NUMBER[case][1]}))
        assert cli_dispatch(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_epochs_per_block_below_one_is_usage_error(self, tmp_path, capsys):
        grad = {"mode": "geometric_epochs", "sizes": [10, 30], "epochs_per_block": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**base_config().to_dict(), "sampling": {"grad": grad}}))
        assert cli_dispatch(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "epochs_per_block" in err
        assert "Traceback" not in err

    def test_coupled_sum_with_one_component_is_usage_error(self, tmp_path, capsys):
        raw = {
            **base_config().to_dict(),
            "problem": {"kind": "synthetic_sum", "n_components": 1, "d": 4, "coupling": 0.5, "seed": 0},
            "sampling": {"grad": {"mode": "fixed", "size": 1}, "hess": {"kind": "iid", "size": 1}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "n_components=1" in err and "coupling=0.5" in err
        assert not out.exists()

    def test_summary_of_a_run_that_overflows_is_strict_json(self, tmp_path, capsys):
        # alpha 1e200 overflows the loss to inf on the second step
        raw = {
            **base_config().to_dict(),
            "epochs": 1,
            "problem": {"kind": "quadratic", "d": 60, "keep_prob": 0.5, "seed": 0},
            "method": {"name": "sgd"},
            "schedules": {"alpha": {"kind": "constant", "alpha": 1e200}},
            "sampling": {"grad": {"mode": "fixed", "size": 4}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"not RFC 8259 JSON: {token}")

        for text in ((out / "summary.json").read_text(), capsys.readouterr().out):
            summary = json.loads(text, parse_constant=reject)
            assert summary["diverged"] is True
            assert summary["final_f"] is None and summary["final_grad_norm"] is None
            assert math.isfinite(summary["best_f"])

    def test_no_command_prints_usage(self, capsys):
        assert cli_dispatch([]) == 1

    def test_run_and_rates_pipeline(self, tmp_path, capsys):
        # dist_to_opt falls from 0.5 to the 1e-13 floor in 13 steps: 11
        # usable ratios, where the fit needs 10
        cfg = {
            "problem": {"kind": "synthetic_sum", "n_components": 64, "d": 10, "curvature": 2.0, "coupling": 0.9, "seed": 0},
            "method": {"name": "fan", "mu_tilde": 1e-6},
            "sampling": {
                "grad": {"mode": "fixed", "size": 64},
                "hess": {"kind": "cyclic", "size": 4},
            },
            "schedules": {"alpha": {"kind": "constant", "alpha": 1.0}},
            "trace_interval": 1,
            "epochs": 40,
            "seed": 0,
            "init": {"kind": "near_optimum", "radius": 0.5},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        trace = out / "trace.csv"
        assert cli_dispatch(["rates", str(trace), "--col", "dist_to_opt", "--k-start", "1"]) == 0
        _, records = parse_trace(trace.read_text())
        expected = estimate_rates([r.dist_to_opt for r in records], k_start=1)
        assert expected.n_points >= 10
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(expected)

    def test_seed_override(self, tmp_path, capsys):
        cfg = {
            "problem": {"kind": "synthetic_logistic"},
            "method": {"name": "sgd"},
            "sampling": {"grad": {"mode": "fixed", "size": 16}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.05}},
            "epochs": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_dispatch(["run", str(path), "--seed", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 3

    def test_gen_quadratic(self, capsys, tmp_path):
        out = tmp_path / "prob.npz"
        assert cli_dispatch(["gen-quadratic", "--d", "40", "--seed", "1", "--out", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert 1e4 <= info["kappa_ata"] <= 1e7
        assert out.exists()

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = {
            "problem": {"kind": "synthetic_logistic"},
            "method": {"name": "sgd"},
            "sampling": {"grad": {"mode": "fixed", "size": 16}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.05}},
            "epochs": 1,
            "seed": 0,
        }
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        for s in (0, 1):
            cfg["seed"] = s
            (cfg_dir / f"run{s}.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli_dispatch(["sweep", str(cfg_dir), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "run0" / "trace.csv").exists()
        assert "sgd" in capsys.readouterr().out
