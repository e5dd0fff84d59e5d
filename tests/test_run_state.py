"""A run's changing values live in its state, and its context stays as built.

``RunContext`` holds what a run reads; ``OptState`` holds what it changes,
but for the random streams in ``ctx.rngs``. So a context runs again as it
first ran once its streams are fresh, a run leaves its context as it found
it but for those streams, and a run copied mid-way with its streams resumes
to the same end.
"""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from hessavg import rng
from hessavg.harness import ExperimentConfig, build_context
from hessavg.optimizers import init_state, run, step
from hessavg.trace import format_trace
from test_golden_traces import GOLDEN


def _built(name):
    cfg = ExperimentConfig.from_dict(GOLDEN[name][0])
    ctx, w0 = build_context(cfg)
    return cfg, ctx, w0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_context_runs_again_as_it_first_ran(name):
    cfg, ctx, w0 = _built(name)
    traces = []
    for _ in range(2):
        _, records = run(ctx, w0, cfg.epochs)
        traces.append(format_trace(records, cfg.hash(), cfg.seed))
        ctx = replace(ctx, rngs=rng.streams(cfg.seed))
    assert traces[0] == traces[1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_run_leaves_its_context_as_built(name):
    cfg, ctx, w0 = _built(name)
    ctx.oracle.optimum()  # a cache the first trace snapshot would fill
    before = pickle.dumps(replace(ctx, rngs={}))
    run(ctx, w0, cfg.epochs)
    assert pickle.dumps(replace(ctx, rngs={})) == before


def _finish(ctx, state, epochs):
    records = []
    while ctx.epoch_of(state) < epochs and state.diverged is None:
        state, record = step(ctx, state)
        records.append(record)
    return state, records


# One golden config of each problem kind, the rippled cyclic sum among them.
# Each is copied after its first step, while its norm test can still grow
# the batch (the quadratic's reaches its cap on the third).
RESUMED = ["dan2_quadratic_approx_near_optimum", "dan_logistic_approx", "fan_sum_cyclic_exact_inverse_hessian"]


@pytest.mark.parametrize("name", RESUMED)
def test_a_copied_state_and_streams_resume_the_run(name):
    cfg, ctx, w0 = _built(name)
    state = init_state(ctx.method, ctx.oracle, w0)
    head = [step(ctx, state)[1]]
    assert ctx.controller.can_grow(state.batch) and state.hess_updates == 1
    saved = copy.deepcopy((state, ctx.rngs))

    state, tail = _finish(ctx, state, cfg.epochs)
    resumed, rngs = saved
    resumed, resumed_tail = _finish(replace(ctx, rngs=rngs), resumed, cfg.epochs)
    assert len(tail) > 10
    assert np.array_equal(resumed.w, state.w)
    assert resumed_tail == tail

    # and the pieces are the uninterrupted run
    whole, records = run(replace(ctx, rngs=rng.streams(cfg.seed)), w0, cfg.epochs)
    assert np.array_equal(whole.w, state.w)
    assert records[:-1] == head + tail
