"""The benchmark's workload configs load and build under the config readers.

The benchmark's own self-tests run only small configs of their own, so a
stricter reader could refuse a workload the benchmark runs without any test
failing. Here each workload's config, at seeds 0-2, is loaded and its run
built (problem, controller, samplers and initial point), without running it.
Each workload's config at seeds 0 and 1 is checked to be a fixed point of
the reading, so its trace header's hash covers what its run reads, and
that hash is pinned. Each
workload's warm-up, which calls ``init_state`` and ``step`` directly
rather than through ``run``, also runs at seed 0, so a change to those
signatures fails here and not first in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from hessavg.harness import ExperimentConfig, build_context

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    from measure import warm_up
    from workloads import WORKLOADS
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_config_builds(name, seed):
    cfg = ExperimentConfig.from_dict(WORKLOADS[name].config(seed))
    ctx, w0 = build_context(cfg)
    assert ctx.method.name == cfg.method["name"] and w0.shape == (ctx.oracle.dim,)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_config_is_its_own_reading(name, seed):
    # the hash in a workload's trace header covers what the run reads
    cfg = ExperimentConfig.from_dict(WORKLOADS[name].config(seed))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).hash() == cfg.hash()


# Each workload's config hash at seeds 0 and 1, the hash in its trace header.
BENCH_HASHES = {
    "quad_fan": ("a4583e7b0249c545", "6c00680960a1e25c"),
    "logreg_dan_ntest": ("7983ee0632a0281f", "7f2ce4730e4c1569"),
    "sum_fan_cyclic": ("f7942b87dfe39f38", "924a19f40d735a7f"),
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_config_hash_is_pinned(name, seed):
    # a change to the reading that moves a bench trace header fails here
    assert ExperimentConfig.from_dict(WORKLOADS[name].config(seed)).hash() == BENCH_HASHES[name][seed]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_warms_up(name):
    warm_up(ExperimentConfig.from_dict(WORKLOADS[name].config(0)))
