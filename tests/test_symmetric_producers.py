"""Every matrix a run hands ``linalg`` is exactly symmetric where it is built.

``linalg`` refuses a matrix that differs from its transpose in any bit and
repairs none, so each producer must make its output symmetric itself: the
oracles' ``B^T B`` products (one ``syrk``), the synthetic sum's packed
triangles, the ``(out + out^T) / 2`` of a spectral rebuild, and the
elementwise averages of such matrices. These properties pin that, so the
strict check cannot stop a run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg.averaging import FullAverageState
from hessavg.problems import LogisticProblem, SyntheticSumProblem, make_synthetic_logistic, quadratic_generate

SEEDS = st.integers(0, 2**32 - 1)


def assert_exactly_symmetric(h):
    assert np.isfinite(h).all()
    assert np.array_equal(h, h.T)


def point(seed, d):
    return np.random.default_rng(seed).standard_normal(d) * 3.0


class TestOracleHessians:
    @given(st.integers(1, 40), st.floats(0.05, 1.0), st.integers(1, 20), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_quadratic(self, d, keep_prob, size, seed):
        prob = quadratic_generate(d, keep_prob=keep_prob, seed=seed % 1000)
        sample = prob.draw_sample(np.random.default_rng(seed), size)
        assert_exactly_symmetric(prob.hessian_sub(point(seed, d), sample))

    @given(st.integers(2, 300), st.integers(1, 40), st.data(), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_logistic(self, n, d, data, seed):
        prob = LogisticProblem(*make_synthetic_logistic(n=n, d=d, seed=seed % 1000))
        rows = prob.draw_sample(np.random.default_rng(seed), data.draw(st.integers(1, n)))
        assert_exactly_symmetric(prob.hessian_sub(point(seed, d), rows))

    @given(
        st.integers(2, 24),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.5, 4.0]),
        st.sampled_from([0.0, 0.6]),
        st.sampled_from(["covering", "permuted", "subset", "repeats"]),
        SEEDS,
    )
    @settings(max_examples=120, deadline=None)
    def test_synthetic_sum(self, n, d, curvature, coupling, batch, seed):
        prob = SyntheticSumProblem.generate(n, d, seed=seed % 1000, curvature=curvature, coupling=coupling)
        rng = np.random.default_rng(seed)
        if batch == "covering":
            sample = np.arange(n)
        elif batch == "permuted":
            sample = rng.permutation(n)
        elif batch == "subset":
            sample = prob.draw_sample(rng, int(rng.integers(1, n)))
        else:
            sample = rng.integers(0, n, size=n)
            sample[0] = sample[-1]
        assert_exactly_symmetric(prob.hessian_sub(point(seed, d), sample))


def spd(rng, d):
    m = rng.standard_normal((d, d))
    return m @ m.T + np.eye(d)


# How each path is reached: "fast" (lambda_min above the floor, the input
# copied), "flip" (a full rebuild of |H| with no shift) and "shift" (a full
# rebuild shifted up to the floor).
PATHS = {
    "fast": (spd, 1e-3),
    "flip": (lambda rng, d: -spd(rng, d), 1e-3),
    "shift": (spd, 1e6),
}


class TestModifiedAverage:
    @given(
        st.sampled_from(["plain", "abs"]),
        st.sampled_from([None, 0.0, 0.9]),
        st.sampled_from(sorted(PATHS)),
        st.integers(2, 30),
        st.integers(1, 5),
        SEEDS,
    )
    @settings(max_examples=120, deadline=None)
    def test_modified(self, variant, decay, path, d, updates, seed):
        make, floor = PATHS[path]
        rng = np.random.default_rng(seed)
        state = FullAverageState(d, floor, decay=decay, variant=variant)
        for _ in range(updates):
            state.update(make(rng, d))
        assert_exactly_symmetric(state.matrix())
        h, shifted = state.modified()
        assert_exactly_symmetric(h)
        assert shifted == (variant == "abs" or path == "shift")
