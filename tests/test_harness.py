import copy
import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg import cli, linalg
from hessavg.cli import cli_dispatch
from hessavg.data import MANIFESTS, DatasetUnavailable, LibsvmParseError, load_dataset
from hessavg.averaging import UpdateFrequencyPolicy
from hessavg.harness import (
    BLAS_GETTERS,
    INIT_KINDS,
    SCHEDULE_KINDS,
    ConfigError,
    ExperimentConfig,
    _blas_report,
    _build_schedules,
    build_context,
    estimate_rates,
    run_experiment,
    run_many,
    sweep,
    sweep_to_csv,
)
from hessavg.optimizers import (
    DEFAULT_SCHEDULES,
    METHODS,
    AlphaConstant,
    AlphaStepDecay,
    AlphaTwoPhase,
    IotaGeometric,
    IotaSuperDet,
    IotaSuperStoch,
    MethodSpec,
    ThetaConstant,
    ThetaLocalDet,
    ThetaLocalStoch,
    init_state,
    run,
    step,
)
from hessavg.problems import BOUNDS, Choices, Interval, SyntheticSumProblem, make_synthetic_logistic, quadratic_generate
from hessavg.sampling import ADAPTIVE_MODES, ALL_MODES, CyclicSampler, GradSampleController, IidSampler
from hessavg.trace import parse_trace
from test_golden_traces import PINNED_CORE


def base_raw(**overrides):
    raw = {
        "problem": {"kind": "synthetic_logistic", "n": 300, "d": 10, "seed": 0},
        "method": {"name": "fan", "mu_tilde": 1e-3},
        "sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "iid", "size": 25}},
        "schedules": {"alpha": {"kind": "constant", "alpha": 0.5}},
        "epochs": 2,
        "seed": 0,
    }
    raw.update(overrides)
    return raw


def base_config(**overrides):
    return ExperimentConfig.from_dict(base_raw(**overrides))


# Each case: a pattern the ConfigError message must match, and the config
# keys that replace base_config's.
BAD_BATCH_SETTINGS = {
    "grad_cap_0": (
        "cap",
        {"sampling": {"grad": {"mode": "exact_norm_test", "initial_size": 25, "cap": 0}, "hess": {"kind": "iid", "size": 25}}},
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
    "problem_d_null": (
        "'d' in problem of kind 'synthetic_logistic'",
        {"problem": {"kind": "synthetic_logistic", "n": 300, "d": None}},
    ),
    "problem_d_string": (
        "'d' in problem of kind 'synthetic_logistic'",
        {"problem": {"kind": "synthetic_logistic", "n": 300, "d": "12"}},
    ),
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
        with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\] in config"):
            ExperimentConfig.from_dict({"problem": {}, "method": {}, "bogus": 1})

    def test_unknown_problem_kind(self):
        with pytest.raises(ConfigError):
            base_config(problem={"kind": "nope"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"schedules": {"theta": {"kind": "nope"}}}, "^unknown theta schedule kind 'nope'$"),
            ({"sampling": {"grad": {"mode": "fixed", "size": 25}, "hess": {"kind": "nope"}}}, "^unknown Hessian sampler kind 'nope'$"),
            ({"init": {"kind": "nope"}}, "^unknown init kind 'nope'$"),
        ],
        ids=["schedule", "hess_sampler", "init"],
    )
    def test_an_unknown_kind_is_refused(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            base_config(**overrides)

    def test_unknown_dataset(self):
        # it loaded and hashed, and its run died in load_dataset with a bare KeyError
        known = re.escape(str(sorted(MANIFESTS)))
        with pytest.raises(ConfigError, match=f"^unknown 'dataset' 'nope' in problem of kind 'logistic'; known: {known}$"):
            base_config(problem={"kind": "logistic", "dataset": "nope"})

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            base_config(method={"name": "unknown"})

    def test_bad_sampling_mode(self):
        with pytest.raises(ConfigError, match=r"^bad grad sampling: unknown controller mode 'psychic'$"):
            base_config(sampling={"grad": {"mode": "psychic"}})

    @pytest.mark.parametrize("key", ["size", "initial_size", "sizes", "bogus"])
    def test_bad_sampling_mode_is_named_whatever_keys_follow(self, key):
        # it was reported as an unknown key of its section
        with pytest.raises(ConfigError, match=r"^bad grad sampling: unknown controller mode 'psychic'$"):
            base_config(sampling={"grad": {"mode": "psychic", key: 8}})

    def test_misspelt_a_mode_rejected(self):
        grad = {"mode": "exact_norm_test", "initial_size": 8, "a_mode": "inverse_hesian"}
        with pytest.raises(ConfigError, match="a_mode"):
            base_config(sampling={"grad": grad})

    @pytest.mark.parametrize(
        "method, mode",
        [("dan", "exact_norm_test"), ("fan", "approx_norm_test"), ("subnewton", "fixed")],
    )
    def test_inverse_hessian_needs_exact_test_and_full_matrix(self, method, mode):
        # only the exact test reads a_mode; the other modes refuse the key
        grad = {"mode": mode, "size" if mode == "fixed" else "initial_size": 8, "a_mode": "inverse_hessian"}
        refused = re.escape(f"unknown keys ['a_mode'] in grad sampling of mode '{mode}'")
        with pytest.raises(ConfigError, match="inverse_hessian" if mode == "exact_norm_test" else refused):
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
        # an ExperimentConfig made directly is not read at load; building
        # it reads every section and fails with a ConfigError, before any
        # step runs
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
        assert build_context(cfg)[0].controller.size(0.0, 0) == 16

    def test_hash_stable_and_sensitive(self):
        assert base_config().hash() == base_config().hash()
        assert base_config().hash() != base_config(seed=1).hash()


# Each case: a problem section its builder refuses, and the message both
# sides refuse it with, "{where}" standing for " in problem of kind '<kind>'"
# at load and for nothing in the builder. Builder and reader apply one
# function, problems.check_args; TestOneBoundPerKey checks each key's bound.
REFUSED_PROBLEMS = {
    "freq_nan": ({"kind": "synthetic_sum", "curvature": 1.0, "freq": math.nan}, "'freq'{where} must be nonzero, got nan"),
    "coupled_one_component": (
        {"kind": "synthetic_sum", "n_components": 1, "coupling": 0.5},
        "coupling=0.5{where} needs n_components >= 2, got n_components=1",
    ),
}
# A config's NaN is refused by the number reader, before its bound is read.
REFUSED_BEFORE_THE_BOUND = {"freq_nan": "'freq'{where} must be a finite number, got nan"}
BUILDERS = {
    "quadratic": lambda d=4, **args: quadratic_generate(d, **args),
    "logistic": lambda dataset, split_seed: load_dataset(dataset, split_seed=split_seed),
    "synthetic_logistic": make_synthetic_logistic,
    "synthetic_sum": SyntheticSumProblem.generate,
}


class TestOneBoundPerProblemArgument:
    @pytest.mark.parametrize("case", sorted(REFUSED_PROBLEMS))
    def test_a_config_refuses_it_at_load(self, case):
        problem, message = REFUSED_PROBLEMS[case]
        message = REFUSED_BEFORE_THE_BOUND.get(case, message).format(where=f" in problem of kind '{problem['kind']}'")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(base_raw(problem=problem))

    @pytest.mark.parametrize("case", sorted(REFUSED_PROBLEMS))
    def test_its_builder_refuses_it(self, case):
        # at the parent coupling -0.5 built the uncoupled sum, d 0 an empty
        # sum, freq NaN a sum whose losses were NaN, and a synthetic
        # logistic of d 0 a dataset its oracle divided by zero on
        problem, message = REFUSED_PROBLEMS[case]
        args = {key: value for key, value in problem.items() if key != "kind"}
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(where=''))}$"):
            BUILDERS[problem["kind"]](**args)


# Each case: config keys that replace base_raw's, and the key and the
# section a ConfigError must name. Each case ran without a word before
# every section rejected the keys it does not read. The output and data
# directories are run arguments, not keys, and each grad mode reads only
# its own batch-size key.
GRAD_8 = {"mode": "fixed", "size": 8}
MISSPELT_KEYS = {
    "config": ({"epoch": 2}, "epoch", "config"),
    "config_out_dir": ({"out_dir": "out/run0"}, "out_dir", "config"),
    "sampling": ({"sampling": {"gard": GRAD_8, "hess": HESS_25}}, "gard", "sampling"),
    "grad": ({"sampling": {"grad": {"mode": "fixed", "intial_size": 8}}}, "intial_size", "grad sampling of mode 'fixed'"),
    "grad_initial_size_when_fixed": (
        {"sampling": {"grad": {"mode": "fixed", "size": 8, "initial_size": 16}}},
        "initial_size",
        "grad sampling of mode 'fixed'",
    ),
    "grad_size_with_exact_test": (
        {"sampling": {"grad": {"mode": "exact_norm_test", "size": 8}}},
        "size",
        "grad sampling of mode 'exact_norm_test'",
    ),
    "grad_size_with_table": (
        {"sampling": {"grad": {"mode": "geometric_epochs", "sizes": [8, 16], "size": 8}}},
        "size",
        "grad sampling of mode 'geometric_epochs'",
    ),
    "hess": ({"sampling": {"grad": GRAD_8, "hess": {"kind": "iid", "sise": 4}}}, "sise", "hess sampling of kind 'iid'"),
    "hess_seed_of_iid": ({"sampling": {"grad": GRAD_8, "hess": {"kind": "iid", "seed": 3}}}, "seed", "hess sampling of kind 'iid'"),
    "policy": ({"sampling": {"grad": GRAD_8, "policy": {"hff": 2}}}, "hff", "update policy"),
    "method": ({"method": {"name": "dan", "rnak": 2}}, "rnak", "method 'dan'"),
    "schedules": ({"schedules": {"alpah": {"kind": "constant"}}}, "alpah", "schedules"),
    "init_gaussian": ({"init": {"kind": "gaussian", "radius": 1.0}}, "radius", "init of kind 'gaussian'"),
    "init_zeros": ({"init": {"kind": "zeros", "scale": 1.0}}, "scale", "init of kind 'zeros'"),
    "init_near_optimum": ({"init": {"kind": "near_optimum", "scael": 1.0}}, "scael", "init of kind 'near_optimum'"),
    "problem_quadratic": ({"problem": {"kind": "quadratic", "dd": 4}}, "dd", "problem of kind 'quadratic'"),
    "problem_logistic": (
        {"problem": {"kind": "logistic", "dataset": "mushrooms", "split": 1}},
        "split",
        "problem of kind 'logistic'",
    ),
    "problem_logistic_data_dir": (
        {"problem": {"kind": "logistic", "dataset": "mushrooms", "data_dir": "data"}},
        "data_dir",
        "problem of kind 'logistic'",
    ),
    "problem_synthetic_logistic": ({"problem": {"kind": "synthetic_logistic", "dd": 4}}, "dd", "problem of kind 'synthetic_logistic'"),
    "problem_synthetic_sum": ({"problem": {"kind": "synthetic_sum", "n_component": 8}}, "n_component", "problem of kind 'synthetic_sum'"),
}


# Each case: config keys that replace base_raw's, and the key and the
# section a ConfigError must name. "TypeError" cases raised a bare
# TypeError before: rank 1.5 at dan's first Hessian update, and a cyclic
# seed inside SeedSequence.
WRONG_TYPES = {
    "sampling_hess": ({"sampling": {"grad": GRAD_8, "hess": 3}}, "hess", "sampling"),
    "grad_mode": ({"sampling": {"grad": {"mode": 3}}}, "mode", "grad sampling"),
    "grad_cap": ({"sampling": {"grad": {"mode": "exact_norm_test", "cap": "64"}}}, "cap", "grad sampling"),
    "grad_sizes_not_a_list": ({"sampling": {"grad": {"mode": "geometric_epochs", "sizes": 8}}}, "sizes", "grad sampling"),
    "hess_seed_fraction_TypeError": (
        {"sampling": {"grad": GRAD_8, "hess": {"kind": "cyclic", "size": 25, "seed": 1.5}}},
        "seed",
        "hess sampling",
    ),
    "hess_seed_string_TypeError": (
        {"sampling": {"grad": GRAD_8, "hess": {"kind": "cyclic", "size": 25, "seed": "a"}}},
        "seed",
        "hess sampling",
    ),
    "policy_hf": ({"sampling": {"grad": GRAD_8, "policy": {"hf": 1.5}}}, "hf", "update policy"),
    "method_rank_fraction_TypeError": ({"method": {"name": "dan", "rank": 1.5}}, "rank", "method 'dan'"),
    "method_rank_string": ({"method": {"name": "dan", "rank": "2"}}, "rank", "method 'dan'"),
    "method_mu_tilde_null": ({"method": {"name": "fan", "mu_tilde": None}}, "mu_tilde", "method 'fan'"),
    "method_name": ({"method": {"name": ["fan"]}}, "name", "method"),
    "schedule_kind": ({"schedules": {"alpha": {"kind": 1}}}, "kind", "alpha schedule"),
    "init_kind": ({"init": {"kind": None}}, "kind", "init"),
    "init_gaussian": ({"init": {"kind": "gaussian", "scale": "1"}}, "scale", "init of kind 'gaussian'"),
    "init_near_optimum": ({"init": {"kind": "near_optimum", "radius": None}}, "radius", "init of kind 'near_optimum'"),
    "problem_kind": ({"problem": {"kind": 1}}, "kind", "problem"),
    "problem_quadratic": ({"problem": {"kind": "quadratic", "keep_prob": "0.5"}}, "keep_prob", "problem of kind 'quadratic'"),
    "problem_logistic": ({"problem": {"kind": "logistic", "dataset": 5}}, "dataset", "problem of kind 'logistic'"),
    "problem_synthetic_logistic": ({"problem": {"kind": "synthetic_logistic", "n": 1.5}}, "n", "problem of kind 'synthetic_logistic'"),
    "problem_synthetic_sum": ({"problem": {"kind": "synthetic_sum", "coupling": None}}, "coupling", "problem of kind 'synthetic_sum'"),
    # json reads Infinity, which never ended; NaN is in TestOneBoundPerKey
    "epochs_infinity": ({"epochs": math.inf}, "epochs", "config"),
    "trace_interval_minus_infinity": ({"trace_interval": -math.inf}, "trace_interval", "config"),
    "grad_sizes_infinity": (
        {"sampling": {"grad": {"mode": "geometric_epochs", "sizes": [8, math.inf]}}},
        "sizes",
        "grad sampling",
    ),
}


class TestEveryKeyRead:
    @pytest.mark.parametrize("case", sorted(MISSPELT_KEYS))
    def test_a_misspelt_key_is_rejected(self, case):
        overrides, key, where = MISSPELT_KEYS[case]
        with pytest.raises(ConfigError, match=re.escape(f"unknown keys ['{key}'] in {where}")):
            ExperimentConfig.from_dict(base_raw(**overrides))

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_a_wrong_type_is_rejected(self, case):
        overrides, key, where = WRONG_TYPES[case]
        with pytest.raises(ConfigError, match=re.escape(f"'{key}' in {where} must be")):
            ExperimentConfig.from_dict(base_raw(**overrides))

    @pytest.mark.parametrize("case", sorted(c for c in WRONG_TYPES if c.endswith("TypeError")))
    def test_cli_run_reports_a_wrong_type_without_a_traceback(self, case, tmp_path, capsys):
        overrides, key, where = WRONG_TYPES[case]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw(epochs=0.2, **overrides)))
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{key}' in {where} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_cli_run_refuses_a_non_finite_number(self, token, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw()).replace('"epochs": 2', f'"epochs": {token}'))
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: 'epochs' in config must be a finite number")
        assert not (tmp_path / "run").exists()

    def test_cli_run_refuses_an_unknown_dataset_before_any_fetch(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw(problem={"kind": "logistic", "dataset": "nope"})))
        argv = ["run", str(path), "--out", str(tmp_path / "run"), "--data-dir", str(tmp_path / "data")]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown 'dataset' 'nope'")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists() and not (tmp_path / "data").exists()

    def test_an_integer_too_large_for_a_float_is_a_config_error(self):
        # float() raised a bare OverflowError out of from_dict
        raw = json.loads(json.dumps(base_raw()).replace('"epochs": 2', '"epochs": 1' + "0" * 400))
        with pytest.raises(ConfigError, match="'epochs' in config must be a finite number"):
            ExperimentConfig.from_dict(raw)

    def test_cli_run_refuses_an_integer_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw()).replace('"epochs": 2', '"epochs": 1' + "0" * 400))
        assert cli_dispatch(["run", str(path), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'epochs' in config must be a finite number")
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "problem",
        [
            {"kind": "logistic", "dataset": "mushrooms"},
            {"kind": "synthetic_logistic", "n": 300, "d": 10},
            {"kind": "synthetic_sum", "n_components": 8, "d": 4},
        ],
        ids=lambda p: p["kind"],
    )
    def test_a_finite_sum_refuses_iters_per_epoch(self, problem):
        # a finite sum counts epochs in components; 7 ran the default run
        # under another hash
        with pytest.raises(ConfigError, match=f"'iters_per_epoch' in config .* of kind '{problem['kind']}'"):
            base_config(problem=problem, iters_per_epoch=7)
        assert base_config(problem=problem, iters_per_epoch=100).iters_per_epoch == 100

    def test_the_quadratic_reads_iters_per_epoch(self):
        cfg = base_config(problem={"kind": "quadratic", "d": 6}, iters_per_epoch=7)
        ctx, _ = build_context(cfg)
        assert ctx.iters_per_epoch == 7
        # one step of a quadratic is 1/iters_per_epoch of an epoch
        result = run_experiment(dataclasses.replace(cfg, epochs=3 / 7))
        assert [r.k for r in result.records][-1] == 3

    @pytest.mark.parametrize(
        "grad",
        [
            {"mode": "exact_norm_test", "initial_size": 300, "cap": 256},
            {"mode": "fixed", "size": 70000},  # above the default cap of 2**16
            {"mode": "fixed", "size": 256},
        ],
        ids=["norm_test_above_its_cap", "fixed_above_the_default_cap", "fixed_below_the_cap"],
    )
    def test_an_expectation_epoch_is_one_eec(self, grad):
        # EEC divides by the first batch a step draws, clamped to the cap:
        # the first two read 0.853 and 0.936 when it divided by the size
        # as written
        cfg = base_config(
            problem={"kind": "quadratic", "d": 4}, method={"name": "sgd"}, sampling={"grad": grad}, iters_per_epoch=10, epochs=1
        )
        last = run_experiment(cfg).records[-1]
        assert (last.k, last.epoch, last.eec) == (10, 1.0, 1.0)

    def test_a_hand_built_size_table_reports_the_config_runs_eec(self):
        # the hand-built controller ran the same steps but reported EEC 0.4:
        # EEC read its initial_size, which defaulted to 1, where the reader
        # set it to the table's first size
        cfg = base_config(
            problem={"kind": "quadratic", "d": 4}, method={"name": "sgd"}, sampling={"grad": {"mode": "geometric_epochs", "sizes": [8, 16]}}, epochs=0.05
        )
        read = run_experiment(cfg).records
        ctx, w0 = build_context(cfg)
        hand = dataclasses.replace(ctx, controller=GradSampleController("geometric_epochs", (8, 16), 2**16))
        assert hand.controller == ctx.controller
        records = run(hand, w0, cfg.epochs)[1]
        assert records == read and records[-1].eec == 0.05

    def test_build_context_leaves_the_reading_unchanged(self):
        # a config is held as read, with every default its readers take
        # written in, where it was held as written; the readers take keys
        # from their own copies, so a run leaves the reading as loaded
        raw = base_raw(init={"kind": "near_optimum"}, problem={"kind": "synthetic_sum", "n_components": 8, "d": 4})
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
        before = json.dumps(cfg.to_dict(), sort_keys=True)
        ctx, _ = build_context(cfg)
        assert json.dumps(cfg.to_dict(), sort_keys=True) == before
        assert cfg.init == {"kind": "near_optimum", "radius": 0.5}
        # the sizes of 25 read as the 8 components they run as
        assert cfg.sampling == {"grad": {"mode": "fixed", "size": 8}, "hess": {"kind": "iid", "size": 8}, "policy": {"warmup": 0, "hf": 1}}
        assert (ctx.controller.sizes, ctx.hess_sampler.block_size) == ((8,), 8)
        assert base_config().init == {"kind": "gaussian", "scale": 1.0}


# Which keys each method reads, written out apart from ``METHODS``, and a
# value for each that is not its default.
METHOD_KEYS = {
    "sgd": (),
    "adam": ("beta1", "beta2", "adam_eps"),
    "subnewton": ("mu_tilde", "variant"),
    "fan": ("mu_tilde", "variant", "decay"),
    "dan": ("rank", "eps", "decay"),
    "dan2": ("rank", "eps", "decay"),
    "adahessian": ("rank", "beta1", "beta2", "adam_eps"),
}
METHOD_VALUES = {"mu_tilde": 1.0, "variant": "abs", "decay": 0.5, "rank": 3, "eps": 1e-2, "beta1": 0.5, "beta2": 0.9, "adam_eps": 1e-3}
HESSIAN_METHODS = ("subnewton", "fan", "dan", "dan2", "adahessian")
# Each grad mode's batch-size key. For cap and a_mode: the modes that read
# the key, a value for those, and a value the other modes used to ignore.
GRAD_SIZES = {"fixed": ("size", 8), "geometric_epochs": ("sizes", [8, 16]), "exact_norm_test": ("initial_size", 8),
              "approx_norm_test": ("initial_size", 8)}
GRAD_KEYS = {"cap": (ADAPTIVE_MODES, 64, 64), "a_mode": (("exact_norm_test",), "inverse_hessian", "identity")}


def method_raw(name, sampling=None, **method):
    """A short traced run of method ``name`` with the ``method`` keys given.

    Its sampling gives a Hessian sampler only to a method that keeps a
    Hessian estimate, unless ``sampling`` is given.
    """
    if sampling is None:
        sampling = {"grad": GRAD_8, **({"hess": HESS_25} if name in HESSIAN_METHODS else {})}
    return base_raw(method={"name": name, **method}, sampling=sampling, epochs=0.5, trace_interval=1)


def trace_rows(raw, tmp_path):
    """The rows of the trace ``raw`` writes, without the header that holds its hash."""
    run_experiment(ExperimentConfig.from_dict(raw), out_dir=str(tmp_path))
    return (tmp_path / "trace.csv").read_text().splitlines()[1:]


class TestEveryKeyActs:
    """A config loads a key only where the run reads it, and every key it loads changes the run.

    Each refused case loaded before, and ran as if the key were absent.
    """

    def test_the_table_covers_every_method_field(self):
        assert set(METHOD_KEYS) == set(METHODS)
        assert set(METHOD_VALUES) == {f.name for f in dataclasses.fields(MethodSpec)} - {"name"}

    @pytest.mark.parametrize("name, key", [(name, key) for name in METHOD_KEYS for key in METHOD_VALUES])
    def test_a_method_loads_only_its_own_keys(self, name, key):
        raw = method_raw(name, **{key: METHOD_VALUES[key]})
        if key in METHOD_KEYS[name]:
            assert getattr(build_context(ExperimentConfig.from_dict(raw))[0].method, key) == METHOD_VALUES[key]
        else:
            with pytest.raises(ConfigError, match=re.escape(f"unknown keys ['{key}'] in method '{name}'")):
                ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("name, key", [(name, key) for name, keys in METHOD_KEYS.items() for key in keys])
    def test_each_method_key_changes_the_trace(self, name, key, tmp_path):
        plain = trace_rows(method_raw(name), tmp_path / "plain")
        assert trace_rows(method_raw(name, **{key: METHOD_VALUES[key]}), tmp_path / "set") != plain

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("key", sorted(GRAD_KEYS))
    def test_cap_and_a_mode_load_only_where_read(self, mode, key):
        modes, read, ignored = GRAD_KEYS[key]
        value = read if mode in modes else ignored
        size_key, size = GRAD_SIZES[mode]
        raw = base_raw(sampling={"grad": {"mode": mode, size_key: size, key: value}, "hess": HESS_25})
        if mode in modes:
            ctx = build_context(ExperimentConfig.from_dict(raw))[0]
            assert getattr(ctx.controller, key) == value
        else:
            with pytest.raises(ConfigError, match=re.escape(f"unknown keys ['{key}'] in grad sampling of mode '{mode}'")):
                ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("name", sorted(METHOD_KEYS))
    @pytest.mark.parametrize("key, value", [("hess", HESS_25), ("policy", {"hf": 2})])
    def test_hess_and_policy_load_only_for_a_method_that_keeps_a_hessian(self, name, key, value):
        raw = method_raw(name, sampling={"grad": GRAD_8, key: value})
        if name in HESSIAN_METHODS:
            ctx = build_context(ExperimentConfig.from_dict(raw))[0]
            assert (ctx.hess_sampler.block_size, ctx.policy.hf) == ((25, 1) if key == "hess" else (32, 2))
        else:
            with pytest.raises(ConfigError, match=re.escape(f"unknown keys ['{key}'] in sampling for method '{name}'")):
                ExperimentConfig.from_dict(raw)
            ctx = build_context(ExperimentConfig.from_dict(method_raw(name)))[0]
            assert (ctx.hess_sampler, ctx.policy) == (None, None)


# Each case: a schedules section, its config, and the schedule built directly.
SCHEDULE_CASES = {
    "alpha-constant": ("alpha", {"kind": "constant", "alpha": 0.5}, AlphaConstant(0.5)),
    "alpha-two_phase": ("alpha", {"kind": "two_phase", "alpha_global": 0.01, "k_switch": 7}, AlphaTwoPhase(0.01, 7)),
    "alpha-step_decay": (
        "alpha",
        {"kind": "step_decay", "alpha0": 1.0, "factor": 0.5, "milestones": [5, 9]},
        AlphaStepDecay(1.0, 0.5, (5, 9)),
    ),
    "theta-constant": ("theta", {"kind": "constant", "theta": 0.9}, ThetaConstant(0.9)),
    "theta-local_det": ("theta", {"kind": "local_det", "theta_l": 0.8, "k_switch": 3}, ThetaLocalDet(0.8, 3)),
    "theta-local_stoch": ("theta", {"kind": "local_stoch", "theta_l": 0.7}, ThetaLocalStoch(0.7, 0)),
    "iota-geometric": ("iota", {"kind": "geometric", "iota0": 1.0, "a": 0.5}, IotaGeometric(1.0, 0.5)),
    "iota-super_det": ("iota", {"kind": "super_det", "iota0": 1.0, "a_l": 0.5, "k_switch": 2}, IotaSuperDet(1.0, 0.5, 2)),
    "iota-super_stoch": ("iota", {"kind": "super_stoch", "iota0": 2.0, "a_l": 0.25}, IotaSuperStoch(2.0, 0.25, 0)),
}
REQUIRED_SCHEDULE_KEYS = [
    (case, f.name)
    for case, (_, _, built) in SCHEDULE_CASES.items()
    for f in dataclasses.fields(built)
    if f.default is dataclasses.MISSING
]


class TestSchedulesFromConfig:
    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_each_kind_builds_its_class(self, case):
        section, raw, built = SCHEDULE_CASES[case]
        ctx, _ = build_context(base_config(schedules={section: raw}))
        assert getattr(ctx.schedules, section) == built
        assert type(getattr(ctx.schedules, section)) is type(built)

    def test_no_schedules_are_the_defaults(self):
        assert _build_schedules({}) == DEFAULT_SCHEDULES
        assert _build_schedules({"alpha": {}, "theta": {}, "iota": {}}) == DEFAULT_SCHEDULES

    @pytest.mark.parametrize("case, key", REQUIRED_SCHEDULE_KEYS)
    def test_a_missing_required_key_names_the_key_and_the_section(self, case, key):
        section, raw, _ = SCHEDULE_CASES[case]
        spec = {k: v for k, v in raw.items() if k != key}
        with pytest.raises(ConfigError, match=f"missing key '{key}' in {section} schedule"):
            base_config(schedules={section: spec})

    @pytest.mark.parametrize(
        "section, raw, key",
        [
            ("alpha", {"kind": "constant", "alhpa": 0.5}, "alhpa"),
            ("theta", {"kind": "local_det", "theta_l": 0.5, "k_swtich": 10}, "k_swtich"),
        ],
        ids=["alhpa", "k_swtich"],
    )
    def test_a_misspelt_key_is_rejected(self, section, raw, key):
        # these ran with the default step 0.1 and a switch at 0
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\] in {section} schedule of kind '{raw['kind']}'"):
            base_config(schedules={section: raw})


# One config of each problem kind, method, grad mode, Hessian sampler kind,
# schedule kind and init kind, each writing out a value of its type for every
# key its reader takes that has a bound. Their readings hold every key a
# reader takes.
SUM_8 = {"kind": "synthetic_sum", "n_components": 8, "d": 4}
ONE_OF_EACH = [
    *(base_raw(problem=problem) for problem in ({"kind": "quadratic", "d": 4, "seed": 1}, {"kind": "logistic", "dataset": "mushrooms"},
                                                {"kind": "synthetic_logistic", "n": 300, "d": 10}, {**SUM_8, "curvature": 1.0})),
    *(method_raw(name, **{key: METHOD_VALUES[key] for key in METHOD_KEYS[name]}) for name in METHODS),
    *(base_raw(sampling={"grad": grad}) for grad in ({"mode": "fixed", "size": 8}, {"mode": "geometric_epochs", "sizes": [8, 16]},
                                                     {"mode": "exact_norm_test", "initial_size": 1, "cap": 8},
                                                     {"mode": "approx_norm_test", "initial_size": 1, "cap": 8})),
    base_raw(problem=SUM_8, sampling={"hess": {"kind": "iid", "size": 8}, "policy": {"warmup": 3, "hf": 2}}),
    base_raw(problem=SUM_8, sampling={"hess": {"kind": "cyclic", "size": 8, "seed": 7}}),
    *(base_raw(schedules={section: raw}) for section, raw, _ in SCHEDULE_CASES.values()),
    *(base_raw(init={"kind": kind}) for kind in INIT_KINDS),
]
READINGS = [ExperimentConfig.from_dict(raw).to_dict() for raw in ONE_OF_EACH]
# Keys whose value names an entry of a dispatch table, and keys with no bound.
DISPATCHED = {"kind", "name", "mode"}
UNBOUNDED = {"milestones", "scale", "radius", "dataset"}


def sections(reading, path=()):
    """Each section of a reading with its path, the top level's ``()``."""
    yield path, reading
    for key, value in reading.items():
        if isinstance(value, dict):
            yield from sections(value, path + (key,))


def section_at(reading, path):
    for key in path:
        reading = reading[key]
    return reading


def named(path, section):
    """How a ConfigError names the section at ``path``: for a value out of
    its bound, and for one its reader cannot read as its type."""
    name = path[-1] if path else "config"
    kind = f"of kind {section.get('kind')!r}"
    bound = {"config": "config", "problem": f"problem {kind}", "method": f"method {section.get('name')!r}",
             "grad": f"grad sampling of mode {section.get('mode')!r}", "hess": f"hess sampling {kind}",
             "policy": "update policy"}.get(name, f"{name} schedule {kind}")
    return bound, {"grad": "grad sampling", "hess": "hess sampling"}.get(name, bound)


def grad_controller(mode, cap=2**16, epochs_per_block=20, a_mode="identity", **size):
    (value,) = size.values()  # the mode's one batch-size key
    return GradSampleController(mode, value if isinstance(value, tuple) else (value,), cap, epochs_per_block, a_mode)


# What each section's reader builds, from the section's keys as read.
DIRECT = {
    "config": ExperimentConfig,
    "problem": lambda kind, **args: BUILDERS[kind](**args),
    "method": MethodSpec,
    "grad": grad_controller,
    "hess": lambda kind, size, seed=None: IidSampler(size) if kind == "iid" else CyclicSampler(SUM_8["n_components"], size, seed),
    "policy": UpdateFrequencyPolicy,
    **{section: lambda kind, _kinds=kinds, **args: _kinds[kind](**args) for section, kinds in SCHEDULE_KINDS.items()},
}


def placed(read, value):
    """``value`` in place of a key's value as read: the last entry of a table."""
    return (*read[:-1], value) if isinstance(read, tuple) else value


def build(path, section, key, value):
    """Build directly, with ``value`` for ``key``, what the reader of the
    section at ``path`` builds from ``section``; a None in it is a default."""
    args = {k: v for k, v in {**section, key: placed(section[key], value)}.items() if v is not None}
    return DIRECT[path[-1] if path else "config"](**args)


def refused_values(row, kind):
    """Values outside ``row`` for a key read as ``kind``: each open end, one
    step outside each closed one, a string outside a set of choices, and NaN."""
    if isinstance(row, Choices):
        return ["bogus", math.nan]
    if not isinstance(row, Interval):  # freq's "nonzero"
        return [kind(0), math.nan]
    ends = [(row.lo, row.lo_closed, -1), (row.hi, row.hi_closed, 1)]
    return [kind(end) if not closed else end + out if kind is int else math.nextafter(end, out * math.inf)
            for end, closed, out in ends if math.isfinite(end)] + [math.nan]


def shown(value):
    return repr(value) if isinstance(value, str) else value


def bounded_keys():
    """Each (section, key) that a reader takes and BOUNDS bounds, with a
    reading that holds a value for it and the section's path. A schedules
    section, such as 'alpha', shares its name with a key."""
    found = {}
    for reading in READINGS:
        for path, section in sections(reading):
            for key, value in section.items():
                if key in BOUNDS and not isinstance(value, (dict, type(None))):
                    found.setdefault((named(path, section)[0], key), (reading, path))
    return found


BOUNDED = bounded_keys()


def accepted_values(row, kind):
    """Each closed end of an interval and each member of a set of choices."""
    if isinstance(row, Choices):
        return list(row)
    ends = [(row.lo, row.lo_closed), (row.hi, row.hi_closed)] if isinstance(row, Interval) else []
    return [kind(end) for end, closed in ends if closed and math.isfinite(end)]


def values_of(derive, skip=()):
    """``(where, key, value)`` for each value ``derive(row, kind)`` gives each
    bounded key but those of the sections in ``skip``; ``kind`` is the key's type."""
    cases = []
    for (where, key), (reading, path) in BOUNDED.items():
        read = section_at(reading, path)[key]
        kind = type(read[-1] if isinstance(read, tuple) else read)
        cases += [(where, key, value) for value in derive(BOUNDS[key], kind) if where not in skip]
    return cases


REFUSED = values_of(refused_values)
ACCEPTED = values_of(accepted_values, skip=["problem of kind 'logistic'"])  # its builder would fetch the dataset


class TestOneBoundPerKey:
    """Each key a reader takes has one bound, a row of ``problems.BOUNDS``,
    or names an entry of a dispatch table, or is one of a few unbounded keys.
    A value out of its row is refused at load as "'<key>' in <section> must be
    <words>, got <value>", and by the class or builder the section feeds in
    the same words without the section. The values are derived from the row.

    Before the table, alpha -0.5 ran uphill and alpha 0 stood still, neither
    reported diverged; theta -0.9 ran as 0.9 under another hash; k_switch -1
    raised "math domain error" at step 0 of a super iota; a negative iota0
    grew the first failing batch to the full sum; and a direct construction
    took NaN for iota0, k_switch, hf, warmup, cap, epochs_per_block and a
    gradient or iid Hessian batch size.
    """

    def test_every_key_read_has_one_bound_and_every_row_is_read(self):
        read = {key for reading in READINGS for _, section in sections(reading) for key, value in section.items()
                if not isinstance(value, dict)}
        assert read - DISPATCHED - UNBOUNDED == set(BOUNDS)

    @pytest.mark.parametrize("where, key, value", REFUSED, ids=[f"{w}-{k}-{v}" for w, k, v in REFUSED])
    def test_a_value_out_of_its_row_is_refused_at_load_and_by_its_builder(self, where, key, value):
        reading, path = BOUNDED[where, key]
        raw = copy.deepcopy(reading)
        section = section_at(raw, path)
        read, section[key] = section[key], placed(section[key], value)
        number = named(path, section)[1]
        if not isinstance(value, float) or not math.isnan(value):
            at_load = f"'{key}' in {where} must be {BOUNDS[key]}, got {shown(value)}"
        elif isinstance(read, tuple):
            at_load = f"entries of '{key}' in {number} must be a finite number, got nan"
        else:
            at_load = f"'{key}' in {number} must be {'a string' if isinstance(read, str) else 'a finite number'}, got nan"
        with pytest.raises(ConfigError) as refused:
            ExperimentConfig.from_dict(raw)
        assert str(refused.value) == at_load
        # the controller holds every batch size in its table, 'sizes'
        direct_key = "sizes" if path[-1:] == ("grad",) and key in ("size", "initial_size") else key
        with pytest.raises(ValueError) as refused:
            build(path, section_at(reading, path), key, value)
        assert str(refused.value) == f"'{direct_key}' must be {BOUNDS[key]}, got {shown(value)}"

    @pytest.mark.parametrize("where, key, value", ACCEPTED, ids=[f"{w}-{k}-{v}" for w, k, v in ACCEPTED])
    def test_its_builder_accepts_each_closed_end_and_each_choice(self, where, key, value):
        reading, path = BOUNDED[where, key]
        built = build(path, section_at(reading, path), key, value)
        if key in ("theta", "theta_l"):
            assert built.at(0) == 0


# Values a drawn config may give each key: valid ones, among them the key's
# default and an integer for a float field.
DRAWN_PROBLEMS = {
    "quadratic": {"d": [6, 8.0], "keep_prob": [0.5, 1], "seed": [None, 0, 3]},
    "synthetic_logistic": {"n": [400, 40], "d": [12, 5], "seed": [0, 2]},
    "synthetic_sum": {"n_components": [16, 8], "d": [20, 4], "seed": [0, 1], "curvature": [0, 1.5],
                      "coupling": [0, 0.5], "freq": [10, 3.0], "n_ripples": [4, 2]},
}
DRAWN_METHOD_VALUES = {"mu_tilde": [1, 1e-4], "variant": ["plain", "abs"], "decay": [None, 0.5], "rank": [1, 3.0],
                       "eps": [0, 1e-6], "beta1": [0.9, 0.5], "beta2": [0.999], "adam_eps": [1e-8, 0]}
DRAWN_INIT = {"gaussian": {"scale": [1.0, 2]}, "zeros": {}, "near_optimum": {"radius": [0.5, 1]}}
DRAWN_TOP = {"epochs": [1, 0.5], "seed": [0, 5], "trace_interval": [10, 3.0], "rolling_f": [0, 1, 3]}


@st.composite
def raw_configs(draw):
    """A config over every method, grad mode, Hessian sampler, schedule kind,
    init kind and generated problem kind, each key written out or left to
    its default."""

    def some(options):
        return {key: draw(st.sampled_from(values)) for key, values in options.items() if draw(st.booleans())}

    kind = draw(st.sampled_from(sorted(DRAWN_PROBLEMS)))
    name = draw(st.sampled_from(sorted(METHODS)))
    mode = draw(st.sampled_from(ALL_MODES))
    size_key, size = GRAD_SIZES[mode]
    grad = {"mode": mode, size_key: size} if mode == "geometric_epochs" else {"mode": mode, **some({size_key: [8, 32]})}
    if mode == "fixed" and draw(st.booleans()):
        del grad["mode"]
    grad.update(some({"epochs_per_block": [20, 2]}) if mode == "geometric_epochs" else {})
    grad.update(some({"cap": [None, 64]}) if mode in ADAPTIVE_MODES else {})
    a_modes = ["identity", "inverse_hessian"] if name in ("fan", "subnewton") else ["identity"]
    grad.update(some({"a_mode": a_modes}) if mode == "exact_norm_test" else {})
    sampling = {"grad": grad}
    if name in HESSIAN_METHODS:
        # a cyclic block must divide a finite sum: 8 divides 400 and 40, and
        # 32, the default, reads as 16 or 8 on the sums drawn
        hess_kind = draw(st.sampled_from(["iid"] if kind == "quadratic" else ["iid", "cyclic"]))
        hess_size = {"size": 8} if (hess_kind, kind) == ("cyclic", "synthetic_logistic") else some({"size": [32, 8]})
        sampling["hess"] = {"kind": hess_kind, **hess_size, **(some({"seed": [None, 7]}) if hess_kind == "cyclic" else {})}
        sampling["policy"] = some({"warmup": [0, 3], "hf": [1, 2]})
    schedules = {}
    for section in ("alpha", "theta", "iota"):
        choice = draw(st.sampled_from([None, {}] + [raw for sec, raw, _ in SCHEDULE_CASES.values() if sec == section]))
        if choice is not None:
            schedules[section] = choice
    init_kind = draw(st.sampled_from(sorted(DRAWN_INIT)))
    raw = {
        "problem": {"kind": kind, **some(DRAWN_PROBLEMS[kind])},
        "method": {"name": name, **some({key: DRAWN_METHOD_VALUES[key] for key in METHOD_KEYS[name]})},
        **{key: value for key, value in {"sampling": sampling, "schedules": schedules}.items() if draw(st.booleans())},
        "init": {"kind": init_kind, **some(DRAWN_INIT[init_kind])},
        **some({**DRAWN_TOP, **({"iters_per_epoch": [100, 7]} if kind == "quadratic" else {})}),
    }
    return raw


def written_in(reading, raw, path=()):
    """The paths of the keys ``reading`` holds and ``raw`` leaves out: the defaults the readers wrote in."""
    paths = []
    for key, value in reading.items():
        if key not in raw:
            paths.append(path + (key,))
        if isinstance(value, dict):
            paths += written_in(value, raw.get(key, {}), path + (key,))
    return paths


def without(reading, paths):
    """A copy of ``reading`` without the keys at ``paths``."""
    pruned = copy.deepcopy(reading)
    for path in sorted(paths, key=len, reverse=True):  # a key before the section that holds it
        section = pruned
        for key in path[:-1]:
            section = section[key]
        del section[path[-1]]
    return pruned


# Each adds one default, spelt out, to SAME_RUN_BASE; the eight configs run
# the same arithmetic.
SAME_RUN_BASE = {"problem": {"kind": "synthetic_logistic", "n": 200, "d": 5}, "method": {"name": "fan"}, "epochs": 0.5}
SAME_RUN = {
    "mu_tilde": {"method": {"name": "fan", "mu_tilde": 1e-4}},
    "decay": {"method": {"name": "fan", "decay": None}},
    "rolling_f": {"rolling_f": 1},
    "grad": {"sampling": {"grad": {"mode": "fixed", "size": 32}}},
    "hess": {"sampling": {"hess": {"kind": "iid", "size": 32}, "policy": {"hf": 1}}},
    "schedules": {"schedules": {"alpha": {"kind": "constant", "alpha": 0.1}, "theta": {}}},
    "problem_seed": {"problem": {**SAME_RUN_BASE["problem"], "seed": 0}},
}


# One run: fan on 200 components with a norm test from 8, whose Hessian
# sample of 500 runs as 200 and whose cap of 200 runs as no cap.
CLAMPED = [
    {**SAME_RUN_BASE, "sampling": {"grad": {"mode": "exact_norm_test", "initial_size": 8, **cap}, "hess": {"size": size}}}
    for size in (200, 500)
    for cap in ({}, {"cap": 200})
]


class TestTheReading:
    """A config is held and hashed as read: what a run reads, and only that, in one form."""

    @settings(max_examples=200, deadline=None)
    @given(raw=raw_configs(), data=st.data())
    def test_a_config_and_its_reading_less_any_defaults_load_as_one(self, raw, data):
        cfg = ExperimentConfig.from_dict(raw)
        reading = cfg.to_dict()
        assert ExperimentConfig.from_dict(reading) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(reading))) == cfg
        paths = written_in(reading, raw)
        dropped = data.draw(st.sets(st.sampled_from(paths))) if paths else set()
        assert ExperimentConfig.from_dict(without(reading, dropped)).hash() == cfg.hash()

    def test_the_same_run_written_eight_ways_is_one_hash_and_one_row(self):
        # each config hashed apart and printed a sweep row of its own
        configs = [ExperimentConfig.from_dict({**SAME_RUN_BASE, **extra}) for extra in [{}, *SAME_RUN.values()]]
        assert len({cfg.hash() for cfg in configs}) == 1
        rows, _ = sweep(configs)
        assert [(row["seeds"], row["method"], row["grad_mode"], row["rank"]) for row in rows] == [(8, "fan", "fixed", None)]

    def test_the_same_run_clamped_four_ways_is_one_hash_and_one_row(self):
        # each config hashed apart and printed a sweep row of its own, all with one final_f
        configs = [ExperimentConfig.from_dict(raw) for raw in CLAMPED]
        assert {cfg.hash() for cfg in configs} == {"3990a486b433b00e"}
        assert (configs[-1].sampling["grad"]["cap"], configs[-1].sampling["hess"]["size"]) == (None, 200)
        rows, _ = sweep(configs)
        assert [(row["seeds"], row["method"], row["grad_mode"]) for row in rows] == [(4, "fan", "exact_norm_test")]

    def test_a_key_that_acts_on_nothing_reads_as_null(self, tmp_path):
        # each pair hashed apart and wrote equal records: the ripple keys of
        # a sum without curvature, and the block length of a one-size table
        flat = {"kind": "synthetic_sum", "n_components": 16, "d": 4, "curvature": 0}
        one_size = {"mode": "geometric_epochs", "sizes": [8]}
        pairs = {
            "ripples": [
                {"problem": {**flat, **ripples}, "method": {"name": "fan"}, "epochs": 2}
                for ripples in ({"freq": 10, "n_ripples": 4}, {"freq": 3, "n_ripples": 2})
            ],
            "epochs_per_block": [
                {**SAME_RUN_BASE, "method": {"name": "sgd"}, "sampling": {"grad": {**one_size, "epochs_per_block": per_block}}}
                for per_block in (20, 1)
            ],
        }
        for name, pair in pairs.items():
            first, second = (ExperimentConfig.from_dict(raw) for raw in pair)
            assert first == second and ExperimentConfig.from_dict(first.to_dict()) == first
            assert trace_rows(pair[0], tmp_path / name / "0") == trace_rows(pair[1], tmp_path / name / "1")
        assert (first.sampling["grad"]["epochs_per_block"], second.sampling["grad"]["epochs_per_block"]) == (None, None)
        ripples = ExperimentConfig.from_dict(pairs["ripples"][1])
        assert (ripples.problem["freq"], ripples.problem["n_ripples"]) == (None, None)
        assert build_context(ripples)[0].oracle.freq == 10.0
        # the written values are still checked, and a null on a rippled sum is the default
        with pytest.raises(ConfigError, match="'freq' in problem of kind 'synthetic_sum' must be nonzero"):
            ExperimentConfig.from_dict({**pairs["ripples"][0], "problem": {**flat, "freq": 0}})
        with pytest.raises(ConfigError, match="'epochs_per_block' in grad sampling of mode 'geometric_epochs' must be >= 1, got 0"):
            ExperimentConfig.from_dict({**SAME_RUN_BASE, "sampling": {"grad": {**one_size, "epochs_per_block": 0}}})
        rippled = ExperimentConfig.from_dict({**pairs["ripples"][0], "problem": {**flat, "curvature": 1.0, "freq": None, "n_ripples": None}})
        assert (rippled.problem["freq"], rippled.problem["n_ripples"]) == (10.0, 4)

    @pytest.mark.parametrize(
        "grad, key, read, built",
        [
            ({"mode": "exact_norm_test", "initial_size": 300, "cap": 256}, "initial_size", 256, ((256,), 256)),
            ({"mode": "fixed", "size": 70000}, "size", 2**16, ((2**16,), 2**16)),
            ({"mode": "geometric_epochs", "sizes": [8, 70000]}, "sizes", (8, 2**16), ((8, 2**16), 2**16)),
            ({"mode": "approx_norm_test", "cap": 2**16}, "cap", None, ((32,), 2**16)),
            ({"mode": "approx_norm_test", "cap": 70000}, "cap", 70000, ((32,), 70000)),
        ],
        ids=["initial_size_above_its_cap", "size_above_the_default_cap", "sizes_above_the_default_cap", "the_default_cap", "cap_above_the_default"],
    )
    def test_a_size_the_run_clamps_reads_as_clamped(self, grad, key, read, built):
        # the first three read as written, and the controller clamped the
        # batch each step; a cap of 2**16 ran as the default, and an
        # expectation runs a cap above it as written
        cfg = base_config(problem={"kind": "quadratic", "d": 4}, method={"name": "sgd"}, sampling={"grad": grad})
        assert cfg.sampling["grad"][key] == read
        controller = build_context(cfg)[0].controller
        assert (controller.sizes, controller.cap) == built

    def test_a_dataset_reads_its_sizes_against_the_rows_it_loads(self):
        # mushrooms loads 5500 of its 8124 rows; nothing is fetched to read it
        cfg = base_config(problem={"kind": "logistic", "dataset": "mushrooms"}, sampling={"grad": {"mode": "fixed", "size": 6000}, "hess": {"size": 8124}})
        assert (cfg.sampling["grad"]["size"], cfg.sampling["hess"]["size"]) == (5500, 5500)

    def test_a_problem_built_to_another_size_than_read_is_refused(self, monkeypatch):
        monkeypatch.setattr("hessavg.harness.make_synthetic_logistic", lambda n, d, seed: make_synthetic_logistic(n // 2, d, seed))
        with pytest.raises(ConfigError, match="^the problem built has 150 components, but its config reads 300$"):
            build_context(base_config())

    @pytest.mark.parametrize(
        "problem, hess, match",
        [
            ({"kind": "quadratic", "d": 4}, {"kind": "cyclic"}, r"^cyclic Hessian sampling requires a finite-sum problem$"),
            (
                {"kind": "synthetic_logistic", "n": 200, "d": 5},
                {"kind": "cyclic", "size": 3},
                r"^bad hess sampling of kind 'cyclic' with Hessian sample size 3: 'size' must divide the problem's component count 200, got 3$",
            ),
        ],
        ids=["on_an_expectation", "block_not_dividing_the_sum"],
    )
    def test_a_cyclic_sampler_that_cannot_run_is_refused_at_load(self, problem, hess, match):
        # each loaded, and only build_context refused it, with this message
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(base_raw(problem=problem, sampling={"grad": GRAD_8, "hess": hess}))

    @settings(max_examples=100, deadline=None)
    @given(raw=raw_configs())
    def test_a_config_that_loads_builds(self, raw):
        # only near_optimum waits for the built problem, to ask for its
        # optimum; a built run takes its first step, its first loss and
        # schedule values included
        cfg = ExperimentConfig.from_dict(raw)
        try:
            ctx, w0 = build_context(cfg)
        except ConfigError as err:
            assert (cfg.problem["kind"], cfg.init["kind"]) == ("synthetic_logistic", "near_optimum"), err
            assert str(err) == "init kind 'near_optimum' needs a problem with a known optimum"
            return
        step(ctx, init_state(ctx.method, ctx.oracle, w0))

    def test_a_float_field_reads_an_integer_as_a_float(self):
        one, one_point_oh = (ExperimentConfig.from_dict({**SAME_RUN_BASE, "method": {"name": "fan", "mu_tilde": mu}}) for mu in (1, 1.0))
        assert one.method["mu_tilde"] == 1.0 and isinstance(one.method["mu_tilde"], float)
        assert one.hash() == one_point_oh.hash()

    def test_each_accepted_method_key_has_a_hash_of_its_own(self):
        plain = {ExperimentConfig.from_dict(method_raw(name)).hash() for name in METHOD_KEYS}
        hashes = [
            ExperimentConfig.from_dict(method_raw(name, **{key: METHOD_VALUES[key]})).hash()
            for name, keys in METHOD_KEYS.items()
            for key in keys
        ]
        assert len(hashes) == len(set(hashes)) == 18
        assert not set(hashes) & plain

    def test_a_quadratic_without_a_seed_follows_the_run_seed_in_one_row(self):
        def quadratic(run_seed, **problem):
            return base_config(
                problem={"kind": "quadratic", "d": 6, **problem}, method={"name": "sgd"},
                sampling={"grad": {"mode": "fixed", "size": 4}}, epochs=0.05, seed=run_seed,
            )

        follows = [quadratic(0), quadratic(1)]
        assert [cfg.problem["seed"] for cfg in follows] == [None, None]
        oracles = [build_context(cfg)[0].oracle for cfg in (*follows, quadratic(1, seed=0))]
        assert not np.array_equal(oracles[0].a, oracles[1].a) and np.array_equal(oracles[0].a, oracles[2].a)
        rows, _ = sweep(follows + [quadratic(0, seed=0), quadratic(1, seed=0)])
        assert [row["seeds"] for row in rows] == [2, 2]
        assert rows[0]["config"] != rows[1]["config"]

    def test_a_config_made_directly_sweeps_as_read(self):
        # its row is the loaded config's: the same key and the shown columns
        made = ExperimentConfig(**{**SAME_RUN_BASE, "epochs": 0.1})
        loaded = ExperimentConfig.from_dict({**SAME_RUN_BASE, "epochs": 0.1, "seed": 1})
        rows, _ = sweep([made, loaded])
        assert [(row["seeds"], row["method"], row["grad_mode"]) for row in rows] == [(2, "fan", "fixed")]
        assert rows[0]["config"] == dataclasses.replace(loaded, seed=0).hash()

    def test_a_summary_config_loads_to_the_hash_of_its_run(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**SAME_RUN_BASE, "method": {"name": "fan", "mu_tilde": 1}, "epochs": 0.2, "rolling_f": 1})
        run_experiment(cfg, out_dir=str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        meta, _ = parse_trace((tmp_path / "trace.csv").read_text())
        assert ExperimentConfig.from_dict(summary["config"]).hash() == summary["config_hash"] == meta["config"] == cfg.hash()
        assert ExperimentConfig.from_dict(summary["config"]) == cfg

    def test_a_config_made_directly_runs_under_the_hash_of_its_reading(self, tmp_path):
        # the same run wrote the hash of its fields as given when made directly
        raw = {"problem": {"kind": "synthetic_logistic", "n": 200, "d": 5}, "method": {"name": "fan"}, "epochs": 0.5}
        for name, cfg in (("made", ExperimentConfig(**raw)), ("loaded", ExperimentConfig.from_dict(raw))):
            summary = run_experiment(cfg, out_dir=str(tmp_path / name)).summary
            meta, _ = parse_trace((tmp_path / name / "trace.csv").read_text())
            assert summary["config_hash"] == meta["config"] == "f976cb7ccde5cfec"
            assert summary["config"] == ExperimentConfig.from_dict(raw).to_dict()
        assert (tmp_path / "made" / "trace.csv").read_bytes() == (tmp_path / "loaded" / "trace.csv").read_bytes()


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
        assert r1.records == r2.records
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["config_hash"] == cfg.hash()
        assert summary["seed"] == cfg.seed
        assert summary["final_f"] == pytest.approx(r1.summary["final_f"])

    def test_trace_roundtrip(self, tmp_path):
        cfg = base_config()
        result = run_experiment(cfg, out_dir=str(tmp_path))
        meta, records = parse_trace((tmp_path / "trace.csv").read_text())
        assert meta["config"] == cfg.hash()
        assert records == result.records
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

    def test_summary_names_the_blas_library(self):
        summary = run_experiment(base_config(epochs=0.1)).summary
        assert summary["blas_threads"] >= 1
        assert summary["blas_core"] and summary["blas_core"] in summary["blas_config"]

    def test_a_missing_blas_getter_reads_null(self, monkeypatch):
        monkeypatch.setitem(BLAS_GETTERS, "blas_core", ("no_such_getter64_", BLAS_GETTERS["blas_core"][1]))
        monkeypatch.setattr(linalg, "_thread_getter", lambda: None)
        summary = run_experiment(base_config(epochs=0.1)).summary
        assert summary["blas_core"] is None and summary["blas_threads"] is None and summary["blas_config"] is not None

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

    def test_rows_keyed_on_the_built_alpha_schedule(self):
        # the raw-dict key merged these two-phase runs into one row and
        # printed the default step as None
        two_phase = [
            base_config(epochs=0.2, schedules={"alpha": {"kind": "two_phase", "alpha_global": a, "k_switch": 1000}})
            for a in (0.01, 1.0)
        ]
        rows, table = sweep(two_phase + [base_config(epochs=0.2, schedules={})])
        assert [(row["alpha"], row["seeds"]) for row in rows] == [(0.01, 1), (1.0, 1), (0.1, 1)]
        assert "None" not in table

    def test_rows_keyed_on_the_whole_config_but_the_seed(self):
        # the two theta values printed one row with seeds 2 and one mean
        grad = {"mode": "exact_norm_test", "initial_size": 8}
        configs = [
            base_config(epochs=0.5, seed=seed, sampling={"grad": grad, "hess": HESS_25}, schedules={"theta": {"theta": theta}})
            for theta in (0.1, 0.9)
            for seed in (0, 1)
        ]
        rows, table = sweep(configs)
        assert [(row["seeds"], row["config"]) for row in rows] == [
            (2, dataclasses.replace(configs[0], seed=0).hash()),
            (2, dataclasses.replace(configs[2], seed=0).hash()),
        ]
        assert rows[0]["config"] != rows[1]["config"]
        assert all(row["config"] in table for row in rows)
        assert sweep_to_csv(rows).splitlines()[0].split(",") == table.splitlines()[0].split()

    def test_rank_shown_only_for_a_method_that_reads_it(self):
        # sgd, adam, subnewton and fan, which take no rank, showed rank 1
        configs = [ExperimentConfig.from_dict(method_raw(name, rank=3) if name == "dan" else method_raw(name))
                   for name in ("sgd", "adam", "subnewton", "fan", "dan")]
        rows, table = sweep(configs)
        assert [row["rank"] for row in rows] == [None, None, None, None, 3]
        header, *lines = table.splitlines()
        at = header.index("rank")
        assert [line[at:at + 4].strip() for line in lines] == ["", "", "", "", "3"]
        assert [line.split(",")[2] for line in sweep_to_csv(rows).splitlines()[1:]] == ["", "", "", "", "3"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep([])

    @pytest.mark.parametrize("caller, seen", [(None, 1), ("2", min(2, len(os.sched_getaffinity(0))))])
    def test_parallel_workers_start_with_one_blas_thread(self, caller, seen, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if caller is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
        configs = [base_config(epochs=0.1, seed=s) for s in (0, 1)]
        summaries = run_many(configs, parallel=2)
        # base_config's fan factors, in the same OpenBLAS as numpy's products
        assert [s["blas_threads"] for s in summaries] == [seen] * 2
        assert os.environ.get("OPENBLAS_NUM_THREADS") == caller
        assert "OMP_NUM_THREADS" not in os.environ

    def test_run_many_rejects_out_dirs_of_another_length(self, tmp_path):
        # zip ran the first config only and returned one summary
        configs = [base_config(epochs=0.1, seed=s) for s in (0, 1, 2)]
        with pytest.raises(ValueError, match="3 configs but 1 out_dirs"):
            run_many(configs, out_dirs=[str(tmp_path / "run0")])
        assert not any(tmp_path.iterdir())

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
    # Re-pinned when the logistic link moved to numpy, when the Cholesky
    # factorization moved to numpy's OpenBLAS, and when a traced or tested
    # logistic step took its batch values from loss_grad_sub, not from the
    # count-weighted full pass (the floats moved by at most 3e-15 relative
    # each time), and on its header line only when the config hash came to
    # cover the config as read; the pin guards the parsed form, the split
    # and the run together.
    TRACE_SHA256 = "1ca2542bf1cff25bcf0e7b0fc3859d4da5f71c08dbcfb1a0eb25c44f7fba732d"

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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is False and summary["divergence"] is None
        digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256, (
            f"OpenBLAS ran its {_blas_report()['blas_core']} kernels; the digest was pinned under {PINNED_CORE}"
        )


class TestCli:
    def test_eec_table_value(self, capsys):
        assert cli_dispatch(["eec", "--epochs", "1000", "--rank", "1", "--hf", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1202"

    def test_eec_first_order(self, capsys):
        assert cli_dispatch(["eec", "--epochs", "500"]) == 0
        assert capsys.readouterr().out.strip() == "500"

    @pytest.mark.parametrize("epochs", ["inf", "nan", "-2"])
    def test_eec_refuses_epochs_negative_or_not_finite(self, epochs, capsys):
        # inf ended in an OverflowError traceback, nan in a message naming
        # no setting, and -2 printed -4
        assert cli_dispatch(["eec", f"--epochs={epochs}", "--rank", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: epochs must be nonnegative and finite")

    def test_missing_config_is_usage_error(self, capsys):
        assert cli_dispatch(["run", "missing.cfg"]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, code",
        [(ConfigError, 1), (ValueError, 1), (DatasetUnavailable, 2), (OSError, 2), (FileNotFoundError, 2)],
    )
    def test_an_error_a_command_raises_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("no luck")

        monkeypatch.setattr(cli, "_cmd_eec", fail)
        assert cli_dispatch(["eec", "--epochs", "1"]) == code
        assert capsys.readouterr().err == "error: no luck\n"

    @pytest.mark.parametrize(
        "command, message",
        [("run", "{path}: invalid JSON: "), ("sweep", "no *.json configs in {dir}"), ("rates", "trace file not found: {path}")],
        ids=["run_on_invalid_json", "sweep_on_no_config", "rates_on_a_missing_trace"],
    )
    def test_a_file_it_cannot_read_is_a_usage_error(self, command, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if command == "run":
            path.write_text('{"problem": ')
        assert cli_dispatch([command, str(tmp_path if command == "sweep" else path)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message.format(path=path, dir=tmp_path))

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"problem": {"kind": "nope"}, "method": {"name": "sgd"}}))
        assert cli_dispatch(["run", str(bad)]) == 1

    def test_bad_batch_setting_is_usage_error(self, tmp_path, capsys):
        raw = {"method": {"name": "fan", "mu_tilde": 1e-3}, **BAD_BATCH_SETTINGS["grad_cap_0"][1]}
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
            assert summary["diverged"] is True and summary["divergence"] == "non-finite batch loss"
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

    def test_rates_fit_a_thinned_trace_by_step(self, tmp_path, capsys):
        # a rippled, coupled sum whose full-batch run the trace interval
        # does not change: the interval-5 trace's grad_norm was fitted by
        # snapshot, k_hi 12 and rho_bar 0.590, the fifth power of the rate
        def rates(interval, *extra):
            cfg = {"problem": {"kind": "synthetic_sum", "n_components": 64, "d": 10, "curvature": 1.0, "coupling": 0.5},
                   "method": {"name": "fan"}, "sampling": {"grad": {"mode": "fixed", "size": 64}},
                   "epochs": 60, "trace_interval": interval}
            path, out = tmp_path / f"cfg{interval}.json", tmp_path / f"run{interval}"
            path.write_text(json.dumps(cfg))
            assert cli_dispatch(["run", str(path), "--out", str(out)]) == 0
            capsys.readouterr()
            assert cli_dispatch(["rates", str(out / "trace.csv"), "--col", "grad_norm", *extra]) == 0
            return json.loads(capsys.readouterr().out)

        every, thinned = rates(1, "--k-start", "5"), rates(5)
        assert every["k_hi"] == thinned["k_hi"] == 60
        assert thinned["rho_bar"] == pytest.approx(every["rho_bar"], rel=1e-9)
        assert 0.8 < thinned["rho_bar"] < 0.95

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

    def test_a_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_raw()))
        assert cli_dispatch(["run", str(path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: 'seed' in config must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [lines[0], lines[1].replace(",eec", ""), *lines[2:]], "trace header lacks the columns ['eec']"),
            (lambda lines: [*lines[:3], lines[3].rsplit(",", 1)[0], *lines[4:]], "trace line 4 has 8 cells, not 9"),
            (lambda lines: lines[1:], "missing trace schema line"),
            (lambda lines: [lines[0].replace("schema=hessavg-trace-v1", "schema=hessavg-trace-v0"), *lines[1:]],
             "unsupported trace schema 'hessavg-trace-v0'"),
        ],
        ids=["header_without_a_column", "short_row", "no_schema_line", "another_schema"],
    )
    def test_rates_on_a_malformed_trace_is_usage_error(self, edit, message, tmp_path, capsys):
        # these ended in a KeyError and a TypeError traceback
        run_experiment(base_config(epochs=0.5), out_dir=str(tmp_path))
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
        assert cli_dispatch(["rates", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_gen_quadratic(self, capsys):
        assert cli_dispatch(["gen-quadratic", "--d", "40", "--seed", "1"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert 1e4 <= info["kappa_ata"] <= 1e7

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

    def test_run_and_sweep_write_the_same_trace(self, tmp_path, capsys):
        # sweep --out wrote each run's directory into its config, and so
        # into the hash in the trace header
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "one.json").write_text(json.dumps(base_raw(epochs=0.5)))
        assert cli_dispatch(["run", str(cfg_dir / "one.json"), "--out", str(tmp_path / "A")]) == 0
        assert cli_dispatch(["sweep", str(cfg_dir), "--out", str(tmp_path / "B")]) == 0
        assert (tmp_path / "A" / "trace.csv").read_bytes() == (tmp_path / "B" / "one" / "trace.csv").read_bytes()
