"""Self-tests for the benchmark's own code: statistics, accounting, checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hessavg import averaging, harness, linalg, optimizers

import run
from layers import Tracer, layer_metrics
from measure import END_TO_END, PER_LAYER_METRICS, Repeat, failed_share, mark_digest_mismatches, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(99)), 90)
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)), 50)
    assert tail_percentile(list(reversed(range(20))), 50) == 9


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def failing_leaf():
        clock.now += 0.5
        raise KeyError("x")

    leaf_w = tracer.wrap(leaf, "leaf")
    failing_w = tracer.wrap(failing_leaf, "leaf")

    def outer():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        with pytest.raises(KeyError):
            failing_w()
        clock.now += 3.0

    tracer.wrap(outer, "outer")()
    assert tracer.calls == {"leaf": 3, "outer": 1}
    assert tracer.total_s["outer"] == 8.5
    assert tracer.self_s["outer"] == 4.0
    assert tracer.self_s["leaf"] == 4.5


def test_failed_share_counts_every_kind_of_failure():
    repeats = [
        Repeat(traced=False, failure="raised RuntimeError: boom"),
        Repeat(traced=False, digest="a"),
        Repeat(traced=False, digest="a", failure="diverged"),
        Repeat(traced=False, digest="a", failure="final full loss 0.1 above 0.06"),
        Repeat(traced=True, digest="b"),
        Repeat(traced=False, digest="a"),
    ]
    mark_digest_mismatches(repeats)
    assert repeats[4].failure == "trace.csv differs from the first repeat's"
    assert repeats[1].failure is None and repeats[5].failure is None
    assert failed_share(repeats) == 4 / 6


SMALL = {
    "quad_fan": (
        {
            "problem": {"kind": "quadratic", "d": 12, "seed": 3},
            "method": {"name": "fan"},
            "sampling": {"grad": {"mode": "fixed", "size": 16}, "hess": {"kind": "iid", "size": 8}},
            "epochs": 0.12,
        },
        1.0,
        1.0,
    ),
    "sum_fan_cyclic": (
        {
            "problem": {"kind": "synthetic_sum", "n_components": 32, "d": 6, "curvature": 2.0, "coupling": 0.5},
            "method": {"name": "fan"},
            "sampling": {
                "grad": {"mode": "exact_norm_test", "initial_size": 4, "a_mode": "inverse_hessian"},
                "hess": {"kind": "cyclic", "size": 8},
            },
            "epochs": 3.0,
        },
        2.0,
        3.0,
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_counts_kernels_per_step_and_restores(name, tmp_path):
    raw, eigh, cholesky = SMALL[name]
    originals = (linalg.spd_solve, averaging.spd_solve, optimizers.pd_modify, optimizers.step, harness.run)
    tracer = Tracer()
    with tracer.installed():
        assert averaging.spd_solve is not originals[1]
        result = harness.run_experiment(harness.ExperimentConfig.from_dict(raw), out_dir=str(tmp_path))
    assert (linalg.spd_solve, averaging.spd_solve, optimizers.pd_modify, optimizers.step, harness.run) == originals
    layers = layer_metrics(tracer, result.records, 1.0)
    assert layers["linalg.eigh_per_step"] == eigh
    assert layers["linalg.cholesky_per_step"] == cholesky
    assert layers["optimizers.steps"] == len(result.records) - 1
    assert layers["trace.csv_bytes"] == len((tmp_path / "trace.csv").read_bytes())


def test_names_agree_with_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_METRICS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "quad_fan", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
