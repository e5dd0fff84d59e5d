import hashlib
import json
import os
import queue
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hessavg.problems import (
    LogisticProblem,
    QuadraticProblem,
    SyntheticSumProblem,
    make_synthetic_logistic,
    quadratic_generate,
)
from hessavg import problems
from hessavg.data import parse_libsvm
from hessavg.harness import ExperimentConfig, run_experiment
from hessavg import rng as rng_mod


def fd_gradient(loss, w, h=1e-6):
    g = np.zeros_like(w)
    for j in range(len(w)):
        step = h * max(1.0, abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (loss(wp) - loss(wm)) / (2 * step)
    return g


def fd_hvp(grad, w, v, h=1e-6):
    step = h / max(np.linalg.norm(v), 1e-12)
    return (grad(w + step * v) - grad(w - step * v)) / (2 * step)


@pytest.fixture(scope="module")
def quad():
    return quadratic_generate(d=40, keep_prob=0.5, seed=3)


@pytest.fixture(scope="module")
def logistic():
    x, y = make_synthetic_logistic(n=300, d=10, seed=2)
    return LogisticProblem(x, y)


class TestQuadraticGenerate:
    def test_condition_number_default_spectrum(self):
        prob = quadratic_generate(d=100, keep_prob=0.5, seed=0)
        eigs = np.linalg.eigvalsh(prob.a)
        kappa = (eigs[-1] / eigs[0]) ** 2
        assert 5e5 <= kappa <= 2e6

    def test_constant_spectrum_gives_identity(self):
        prob = quadratic_generate(d=12, spectrum=lambda i: np.ones_like(i, dtype=float), seed=1)
        np.testing.assert_allclose(prob.a, np.eye(12), atol=1e-12)

    def test_seed_determinism_bitwise(self):
        p1 = quadratic_generate(d=30, seed=7)
        p2 = quadratic_generate(d=30, seed=7)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(ValueError):
            quadratic_generate(d=4, spectrum=lambda i: i - 2.0, seed=0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            quadratic_generate(d=0)


class TestQuadraticOracle:
    def test_all_keep_grad_zero_at_solution(self):
        prob = quadratic_generate(d=10, keep_prob=1.0, seed=4)
        w = np.linalg.solve(prob.a, prob.b)
        sample = prob.draw_sample(rng_mod.stream(0, "gradient"), 5)
        assert np.linalg.norm(prob.loss_grad_sub(w, sample)[1]) <= 1e-9

    def test_identity_all_keep_at_zero(self):
        b = np.array([1.0, -2.0, 0.5])
        prob = QuadraticProblem(np.eye(3), b, keep_prob=1.0)
        sample = prob.draw_sample(rng_mod.stream(0, "gradient"), 4)
        np.testing.assert_allclose(prob.loss_grad_sub(np.zeros(3), sample)[1], -2 * b, atol=1e-14)

    def test_monte_carlo_grad_unbiased_at_optimum(self, quad):
        w_star, _ = quad.optimum()
        rng = rng_mod.stream(11, "gradient")
        m = 100_000
        comps = quad.component_grads(w_star, quad.draw_sample(rng, m))
        mean = comps.mean(axis=0)
        se = np.linalg.norm(comps.std(axis=0)) / np.sqrt(m)
        assert np.linalg.norm(mean) <= 3 * se

    def test_batch_mean_error_scales_inverse_sqrt(self, quad):
        # mean over repeated batches decays like 1/sqrt(m)
        rng = rng_mod.stream(13, "gradient")
        w = rng.standard_normal(quad.dim)
        gf = quad.grad_full(w)
        sizes = [4, 16, 64, 256]
        reps = 300
        errs = []
        for m in sizes:
            comps = quad.component_grads(w, quad.draw_sample(rng, m * reps))
            batch_means = comps.reshape(reps, m, -1).mean(axis=1)
            errs.append(np.mean(np.linalg.norm(batch_means - gf, axis=1)))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -0.65 <= slope <= -0.35

    def test_hessian_all_keep_constant(self):
        prob = quadratic_generate(d=8, keep_prob=1.0, seed=5)
        rng = rng_mod.stream(0, "hessian")
        for w in (np.zeros(8), rng.standard_normal(8)):
            h = prob.hessian_sub(w, prob.draw_sample(rng, 3))
            np.testing.assert_allclose(h, 2 * prob.a.T @ prob.a, atol=1e-12)

    def test_full_gradient_fd(self, quad):
        rng = rng_mod.stream(14, "gradient")
        for _ in range(5):
            w = rng.standard_normal(quad.dim)
            g = quad.grad_full(w)
            g_fd = fd_gradient(quad.loss_full, w)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)

    def test_sub_gradient_and_hvp_fd(self, quad):
        rng = rng_mod.stream(15, "gradient")
        sample = quad.draw_sample(rng, 6)
        for _ in range(3):
            w = rng.standard_normal(quad.dim)
            g = quad.loss_grad_sub(w, sample)[1]
            g_fd = fd_gradient(lambda u: quad.loss_grad_sub(u, sample)[0], w)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            v = rng.standard_normal(quad.dim)
            hv = quad.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: quad.loss_grad_sub(u, sample)[1], w, v)
            assert np.linalg.norm(hv - hv_fd) <= 1e-4 * max(np.linalg.norm(hv), 1.0)

    def test_mask_index_shapes_checked(self, quad):
        rng = rng_mod.stream(16, "gradient")
        sample = quad.draw_sample(rng, 4)
        assert sample.a_keep.shape == (4, quad.dim)
        assert sample.b_keep.dtype == bool

    def test_rejects_bad_keep_prob(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.eye(2), np.ones(2), keep_prob=0.0)


class TestLogisticOracle:
    def test_loss_at_zero_is_log2(self, logistic):
        sample = np.arange(50)
        assert logistic.loss_grad_sub(np.zeros(logistic.dim), sample)[0] == pytest.approx(np.log(2.0))

    def test_grad_at_zero(self, logistic):
        sample = np.arange(40)
        expected = -(logistic.y[sample][:, None] * logistic.x[sample]).sum(axis=0) / (2 * 40)
        np.testing.assert_allclose(
            logistic.loss_grad_sub(np.zeros(logistic.dim), sample)[1], expected, atol=1e-12
        )

    def test_gradient_fd(self, logistic):
        rng = rng_mod.stream(20, "gradient")
        for _ in range(5):
            w = rng.standard_normal(logistic.dim)
            sample = logistic.draw_sample(rng, 25)
            g = logistic.loss_grad_sub(w, sample)[1]
            g_fd = fd_gradient(lambda u: logistic.loss_grad_sub(u, sample)[0], w)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_hvp_fd(self, logistic):
        rng = rng_mod.stream(21, "gradient")
        for _ in range(5):
            w = rng.standard_normal(logistic.dim)
            sample = logistic.draw_sample(rng, 25)
            v = rng.standard_normal(logistic.dim)
            hv = logistic.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: logistic.loss_grad_sub(u, sample)[1], w, v)
            assert np.linalg.norm(hv - hv_fd) <= 1e-5 * max(np.linalg.norm(hv), 1.0)

    def test_hvp_at_zero_closed_form(self, logistic):
        sample = np.arange(30)
        v = np.ones(logistic.dim)
        xs = logistic.x[sample]
        expected = xs.T @ (xs @ v) / (4 * 30) + v / logistic.n
        np.testing.assert_allclose(logistic.hvp_sub(np.zeros(logistic.dim), sample, v), expected)

    def test_hvp_linear_and_symmetric(self, logistic):
        rng = rng_mod.stream(22, "gradient")
        w = rng.standard_normal(logistic.dim)
        sample = logistic.draw_sample(rng, 20)
        u, v = rng.standard_normal((2, logistic.dim))
        a, b = 0.7, -1.3
        lhs = logistic.hvp_sub(w, sample, a * v + b * u)
        rhs = a * logistic.hvp_sub(w, sample, v) + b * logistic.hvp_sub(w, sample, u)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)
        assert u @ logistic.hvp_sub(w, sample, v) == pytest.approx(
            v @ logistic.hvp_sub(w, sample, u), rel=1e-10, abs=1e-12
        )

    def test_full_set_matches_grad_full(self, logistic):
        rng = rng_mod.stream(23, "gradient")
        w = rng.standard_normal(logistic.dim)
        g_sub = logistic.loss_grad_sub(w, np.arange(logistic.n))[1]
        assert np.linalg.norm(g_sub - logistic.grad_full(w)) <= 1e-12

    def test_strong_convexity_floor(self, logistic):
        rng = rng_mod.stream(24, "gradient")
        w = rng.standard_normal(logistic.dim)
        sample = logistic.draw_sample(rng, 15)
        for _ in range(10):
            v = rng.standard_normal(logistic.dim)
            quad_form = v @ logistic.hvp_sub(w, sample, v)
            assert quad_form >= (v @ v) / logistic.n - 1e-12

    def test_stable_for_large_margins(self, logistic):
        w = 1e4 * np.ones(logistic.dim)
        sample = np.arange(logistic.n)
        loss, grad = logistic.loss_grad_sub(w, sample)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("bad, match", [([-1], "out of range"), ([0, 300], "out of range"), ([], "empty")])
    def test_bad_sample_rejected(self, logistic, bad, match):
        with pytest.raises(ValueError, match=match):
            logistic.loss_grad_sub(np.zeros(logistic.dim), np.array(bad, dtype=int))

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(np.ones((3, 2)), np.array([0.0, 1.0, -1.0]))

    @pytest.mark.parametrize(
        "data, match",
        [
            ((np.ones((3, 2)), np.ones(2)), r"^x must be \(n, d\) with matching labels$"),
            ((np.ones((0, 2)), np.ones(0)), r"^empty dataset: x has shape \(0, 2\)$"),
            # a LIBSVM file of labels only; _block_rows divided by zero on it
            (parse_libsvm("1\n-1\n"), r"^empty dataset: x has shape \(2, 0\)$"),
        ],
        ids=["labels_not_one_per_row", "no_rows", "no_columns"],
    )
    def test_a_dataset_it_cannot_fit_is_refused(self, data, match):
        with pytest.raises(ValueError, match=match):
            LogisticProblem(*data)


TAIL_MARGINS = (40.0, -40.0, 700.0, -700.0, 1e4, -1e4)


def _tail_problem():
    """Rows ``[y z, 1]`` for each tail margin ``z`` and label ``y``, read at ``w = e_0``.

    Row ``i``'s margin is ``y_i^2 z_i = z_i``, and ``w`` is 0 in column 1,
    so column 1 of a one-row batch's gradient is the row's data term alone,
    ``-y σ(-z)``, with no regularizer added to it.
    """
    z = np.repeat(TAIL_MARGINS, 2)
    y = np.tile([1.0, -1.0], len(TAIL_MARGINS))
    return LogisticProblem(np.column_stack([y * z, np.ones_like(z)]), y), np.array([1.0, 0.0]), z, y


def _within_ulps(value, reference, ulps=4):
    return abs(value - reference) <= ulps * np.finfo(float).eps * abs(reference)


class TestLogisticLinkTails:
    """One-row batches at margins far in the link's tails: finite values, no
    overflow warning, and the tail coefficient to a few ulp, where ``1 - σ(z)``
    rounds to 0 from ``z`` of about 37."""

    @pytest.mark.parametrize("row", range(2 * len(TAIL_MARGINS)))
    def test_finite_and_accurate_with_no_warning(self, row):
        oracle, w, z, y = _tail_problem()
        sample = np.array([row])
        # -y σ(-z) = -y exp(-log(1 + e^z)), and σ(z)σ(-z) likewise
        coeff = -y[row] * np.exp(-np.logaddexp(0.0, z[row]))
        weight = np.exp(-np.logaddexp(0.0, z[row]) - np.logaddexp(0.0, -z[row]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = oracle.loss_grad_sub(w, sample)
            row_grad = oracle.component_grads(w, sample)[0]
            hv = oracle.hvp_sub(w, sample, np.array([1.0, 0.0]))
            h = oracle.hessian_sub(w, sample)
        assert np.isfinite(loss) and loss == pytest.approx(np.logaddexp(0.0, -z[row]) + 0.5 / oracle.n)
        for g in (grad, row_grad):
            assert np.all(np.isfinite(g))
            assert _within_ulps(g[1], coeff), (g[1], coeff)
        assert np.all(np.isfinite(hv)) and np.all(np.isfinite(h))
        # column 1 of H e_0 is the weight times x_0 x_1 = y z, with no regularizer
        assert _within_ulps(hv[1], weight * y[row] * z[row]), (hv[1], weight * y[row] * z[row])


class TestSyntheticSum:
    def test_optimum_closed_form_when_quadratic(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=0)
        w_star, f_star = prob.optimum()
        assert np.linalg.norm(prob.grad_full(w_star)) <= 1e-10
        expected = np.linalg.solve(problems._unpack(prob.h, 6).mean(axis=0), prob.b.mean(axis=0))
        np.testing.assert_allclose(w_star, expected, atol=1e-10)

    def test_optimum_with_ripples(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=0, curvature=2.0, coupling=0.5)
        w_star, _ = prob.optimum()
        assert np.linalg.norm(prob.grad_full(w_star)) <= 1e-12

    def test_component_hessians_distinct_and_pd(self):
        prob = SyntheticSumProblem.generate(16, 20, seed=5, coupling=0.9)
        hs = problems._unpack(prob.h, 20)
        mins = [np.linalg.eigvalsh(h)[0] for h in hs]
        assert min(mins) > 0
        for i in range(1, 16):
            assert np.linalg.norm(hs[i] - hs[0]) > 1e-6

    def test_coupled_mean_is_base(self):
        prob = SyntheticSumProblem.generate(16, 20, seed=5, coupling=0.9, eig_range=(0.02, 3.0))
        eigs = np.linalg.eigvalsh(problems._unpack(prob.h, 20).mean(axis=0))
        assert eigs[0] == pytest.approx(0.02, rel=1e-6)
        assert eigs[-1] == pytest.approx(3.0, rel=1e-6)

    def test_gradient_and_hvp_fd(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=1, curvature=2.0, coupling=0.5, freq=7.0)
        rng = rng_mod.stream(30, "gradient")
        for _ in range(5):
            w = rng.standard_normal(6)
            sample = prob.draw_sample(rng, 4)
            g = prob.loss_grad_sub(w, sample)[1]
            g_fd = fd_gradient(lambda u: prob.loss_grad_sub(u, sample)[0], w, h=1e-7)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            v = rng.standard_normal(6)
            hv = prob.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: prob.loss_grad_sub(u, sample)[1], w, v, h=1e-7)
            assert np.linalg.norm(hv - hv_fd) <= 1e-4 * max(np.linalg.norm(hv), 1.0)

    def test_hessian_sub_matches_hvp_identity(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=2, curvature=1.0, coupling=0.5)
        rng = rng_mod.stream(31, "hessian")
        w = rng.standard_normal(6)
        for size in (4, 8):  # 8 covers the sum
            sample = prob.draw_sample(rng, size)
            h = prob.hessian_sub(w, sample)
            for _ in range(5):
                v = rng.standard_normal(6)
                np.testing.assert_allclose(h @ v, prob.hvp_sub(w, sample, v), atol=1e-10)

    @pytest.mark.parametrize("curvature", [-40.0, float("nan")])
    def test_negative_or_nan_curvature_is_refused(self, curvature):
        # the ripple gates read curvature > 0, so these ran the curvature-0 problem
        with pytest.raises(ValueError, match="'curvature' must be >= 0"):
            SyntheticSumProblem.generate(8, 4, seed=0, curvature=curvature)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"freq": 0.0}, "^'freq' must be nonzero, got 0.0$"), ({"n_ripples": 0}, "^'n_ripples' must be >= 1, got 0$"),
         ({"n_ripples": -1}, "^'n_ripples' must be >= 1, got -1$")],
        ids=["freq_0", "no_ripples", "negative_ripples"],
    )
    def test_a_ripple_it_cannot_evaluate_is_refused(self, kwargs, match):
        # freq 0 built, and its first loss divided by zero; n_ripples -1
        # raised a numpy shape error in the draw of the directions
        with pytest.raises(ValueError, match=match):
            SyntheticSumProblem.generate(8, 4, seed=0, curvature=1.0, **kwargs)

    @pytest.mark.parametrize(
        "n_components, match",
        [(0, "'n_components' must be >= 1, got 0"), (1, "coupling=0.5 .*n_components=1")],
        ids=["0", "1"],
    )
    def test_coupling_needs_two_components(self, n_components, match):
        # centring makes a lone G zero, and scaling by 1/0 made H all NaN;
        # no components at all is refused by their own bound first
        with pytest.raises(ValueError, match=match):
            SyntheticSumProblem.generate(n_components, 4, seed=0, coupling=0.5)

    def test_bench_sized_instance_keeps_its_bits(self):
        # Pinned from the loop that took all 1024 SVDs, over the full
        # (N, d, d) stack. The goldens cover only N=64, d=20.
        prob = SyntheticSumProblem.generate(1024, 50, seed=0, curvature=2.0, coupling=0.5)
        digest = hashlib.sha256()
        for arr in (problems._unpack(prob.h, 50), prob.b, prob.a_dirs, prob.phases):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == "f287e28a207fb2acda62a9ab9ace5fddbc6a5261b4b2c89ecf029e1a6eb21918"


def _svd_max(gs):
    return max(np.linalg.norm(g, 2) for g in gs)


def _screened_max(gs):
    """``_max_spectral_norm`` of the full symmetric stack ``gs``, packed."""
    return problems._max_spectral_norm(problems._pack(gs), gs.shape[-1])


def _coupling_stack(n, d, seed):
    """Symmetric stacks built as the coupled sum builds its ``G_i``."""
    gs = np.random.default_rng(seed).standard_normal((n, d, d))
    gs = 0.5 * (gs + np.transpose(gs, (0, 2, 1)))
    if n > 1:
        gs -= gs.mean(axis=0)
    assert np.array_equal(gs, np.transpose(gs, (0, 2, 1)))
    return gs


class TestMaxSpectralNorm:
    """``_max_spectral_norm`` is ``max(norm(g, 2))`` with ``==``."""

    @pytest.mark.parametrize("d", [1, 5, 50])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_random_symmetric_stacks(self, n, d):
        for seed in range(3):
            gs = _coupling_stack(n, d, seed)
            assert _screened_max(gs) == _svd_max(gs)

    def test_exact_ties(self):
        g = _coupling_stack(2, 7, 0)[0]
        repeated = np.repeat(g[None], 70, axis=0)
        assert _screened_max(repeated) == _svd_max(repeated)
        gs = 0.5 * _coupling_stack(70, 7, 1)
        gs[[3, 66]] = 4.0 * g
        assert _screened_max(gs) == _svd_max(gs)

    @pytest.mark.parametrize("first", [0, 1])
    def test_near_ties(self, first):
        g = _coupling_stack(2, 9, 2)[0]
        gs = 0.5 * _coupling_stack(66, 9, 3)
        gs[[first, 65 - first]] = 4.0 * g, (1 + 2**-52) * 4.0 * g
        assert _screened_max(gs) == _svd_max(gs)

    def test_dominant_eigenvalue_negative(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(12)
        gs = _coupling_stack(40, 12, 5)
        gs[17] -= 10.0 * np.outer(v, v)
        assert np.linalg.eigvalsh(gs[17])[0] < -np.linalg.eigvalsh(gs[17])[-1]
        assert _screened_max(gs) == _svd_max(gs)

    def test_rank_one_ties_where_the_bound_is_tight(self):
        # A rank-one bound equals the norm up to rounding; without the
        # margin, the screen stops before a copy a few ulps larger.
        for seed in range(200):
            v = np.random.default_rng(seed).standard_normal(8)
            gs = np.stack([(1 + k * 2**-52) * np.outer(v, v) for k in (0, 0, 1, 2, 3)])
            assert _screened_max(gs) == _svd_max(gs)

    def test_decomposes_few_matrices(self, monkeypatch):
        gs = _coupling_stack(256, 30, 7)
        norm, orders = np.linalg.norm, []

        def counting_norm(x, ord=None, axis=None):
            orders.append(ord)
            return norm(x, ord, axis)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        top = _screened_max(gs)
        monkeypatch.undo()
        assert top == _svd_max(gs)
        assert 1 <= orders.count(2) <= 16

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_below_one_copy_of_the_stack(self, monkeypatch, threads):
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        gs = _coupling_stack(1024, 20, 8)
        packed = problems._pack(gs)
        tracemalloc.start()
        try:
            problems._max_spectral_norm(packed, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < gs.nbytes


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _coupled_reference(n, d, seed, coupling=0.5, eig_range=(0.5, 3.0), n_ripples=4):
    """``(h, b, a, phases)`` of a coupled sum, each step on the whole stack
    and the ``H_i`` from a loop over single matrices."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    frame = q * np.sign(np.diag(r))
    gs = rng.standard_normal((n, d, d))
    gs = 0.5 * (gs + np.transpose(gs, (0, 2, 1)))
    gs -= gs.mean(axis=0)
    gs *= coupling / _svd_max(gs)
    root = np.sqrt(np.geomspace(eig_range[0], eig_range[1], d))
    hs = np.empty((n, d, d))
    for i in range(n):
        inner = (root[:, None] * (np.eye(d) + gs[i])) * root[None, :]
        h = frame @ inner @ frame.T
        hs[i] = 0.5 * (h + h.T)
    b = rng.standard_normal((n, d))
    a = rng.standard_normal((n, n_ripples, d))
    a /= np.linalg.norm(a, axis=2, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, n_ripples))
    return hs, b, a, phases


class _GatheredSum(SyntheticSumProblem):
    """A synthetic sum that also holds its full ``(N, d, d)`` stack, and
    whose batches gather all their ``H_i`` from it at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.full = problems._unpack(self.h, self.dim)

    def _terms(self, w, idx):
        terms = super()._terms(w, idx)
        return terms if idx is None else (self.full[idx] @ w, *terms[1:])

    def _hessian_terms(self, w, sample):
        h, t, a = super()._hessian_terms(w, sample)
        idx = self._gather_indices(sample)
        return (h if idx is None else self.full[idx].mean(axis=0)), t, a


# More than two chunks of components, and a last chunk that is not full.
_MANY = 3 * problems._CHUNK + 7


class TestPackedStack:
    """``_pack`` and ``_unpack`` move bits, and ``_unpack`` gives exactly
    symmetric matrices."""

    @given(d=st.integers(1, 12), n=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_keeps_every_bit(self, d, n, seed):
        # any 64-bit pattern: NaN payloads, infinities, -0.0 and subnormals too
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, size=(n, d * (d + 1) // 2), dtype=np.uint64)
        packed = bits.view(np.float64)
        full = problems._unpack(packed, d)
        assert full.shape == (n, d, d)
        assert np.array_equal(full.view(np.uint64), np.transpose(full, (0, 2, 1)).view(np.uint64))
        assert _same_bits(problems._pack(full), packed)
        out = np.empty((n, d, d))
        assert problems._unpack(packed, d, out=out) is out and _same_bits(out, full)
        g = rng.standard_normal((n, d, d))
        sym = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        assert _same_bits(problems._unpack(problems._pack(sym), d), sym)

    def test_packed_rows_follow_triu_indices(self):
        m = np.arange(16.0).reshape(4, 4)
        m = m + m.T
        assert _same_bits(problems._pack(m), m[np.triu_indices(4)])
        assert _same_bits(problems._unpack(m[np.triu_indices(4)], 4), m)

    def test_the_constructor_takes_only_the_packed_stack(self):
        with pytest.raises(ValueError, match=r"packed upper triangles of 2 3x3 matrices, shape \(2, 6\)"):
            SyntheticSumProblem(np.zeros((2, 3, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "a, match",
        [(None, "^curvature > 0 requires ripple directions$"), (np.ones((2, 3)), r"^ripple directions must have shape \(N, J, d\)$")],
        ids=["no_directions", "directions_2d"],
    )
    def test_a_rippled_constructor_needs_its_directions(self, a, match):
        with pytest.raises(ValueError, match=match):
            SyntheticSumProblem(problems._pack(np.stack([np.eye(3)] * 2)), np.zeros((2, 3)), a, curvature=1.0)


def _full_stack_bytes(n, d):
    return n * d * d * 8


class TestChunkedStack:
    """The synthetic sum builds its packed ``H_i`` in place and reads a
    batch's ``H_i`` a chunk at a time, with the bits of the whole-stack
    formulas over the full ``(N, d, d)`` stack."""

    @pytest.mark.parametrize("d, seed", [(6, 0), (3, 1), (1, 2)])
    def test_generate_is_the_whole_stack_build(self, d, seed):
        prob = SyntheticSumProblem.generate(_MANY, d, seed=seed, curvature=2.0, coupling=0.5)
        got = (problems._unpack(prob.h, d), prob.b, prob.a_dirs, prob.phases)
        for got, want in zip(got, _coupled_reference(_MANY, d, seed), strict=True):
            assert _same_bits(got, want)

    @pytest.mark.parametrize("d", [5, 1])
    @pytest.mark.parametrize("curvature", [0.0, 2.0])
    @pytest.mark.parametrize("size, repeats", [(_MANY - 1, False), (2 * problems._CHUNK + 1, False), (_MANY, True), (_MANY + 70, True)])
    def test_batch_values_are_the_gathered_formulas(self, d, curvature, size, repeats):
        prob = SyntheticSumProblem.generate(_MANY, d, seed=4, curvature=curvature, coupling=0.5)
        ref = _GatheredSum(prob.h, prob.b, prob.a_dirs, prob.curvature, prob.freq, prob.phases)
        rng = rng_mod.stream(size, "gradient")
        idx = rng.choice(_MANY, size=size, replace=repeats)
        assert np.unique(idx).size < _MANY  # not a cover
        w = rng.standard_normal(d)
        for call in (
            lambda p: p.loss_grad_sub(w, idx),
            lambda p: (p.component_grads(w, idx),),
            lambda p: (p.hessian_sub(w, idx),),
            lambda p: (p.hvp_sub(w, idx, w), p.hvp_sub(w, idx, np.eye(d))),
        ):
            for got, want in zip(call(prob), call(ref), strict=True):
                assert _same_bits(got, want)

    @staticmethod
    def _generate_peak(n, d, curvature):
        tracemalloc.start()
        try:
            prob = SyntheticSumProblem.generate(n, d, seed=0, curvature=curvature, coupling=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return prob, peak

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("curvature", [0.0, 2.0])
    def test_generate_holds_one_stack(self, monkeypatch, curvature, threads):
        # the bench's shape: the packed stack (about half a full one), the
        # ripple directions (J/d of a full stack) and chunk buffers stay
        # below one full N·d² stack, which the build held as its stack
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        _, peak = self._generate_peak(1024, 50, curvature)
        assert peak < _full_stack_bytes(1024, 50)
        if threads > 1:
            # The threads split one thread's buffers: a thread holding
            # buffers or temporaries of its own beside them would show here
            # (a temporary in the passes themselves shows in
            # test_the_passes_allocate_only_their_buffers). Each peak follows
            # a build of the same shape: caches filled, the pool's thread
            # started.
            monkeypatch.setattr(problems, "pass_threads", lambda: 1)
            self._generate_peak(1024, 50, curvature)
            serial = self._generate_peak(1024, 50, curvature)[1]
            monkeypatch.setattr(problems, "pass_threads", lambda: threads)
            threaded = self._generate_peak(1024, 50, curvature)[1]
            assert threaded <= serial + _full_stack_bytes(1, 50)

    def test_generate_draws_no_ripples_at_curvature_0(self):
        # it drew and normalised (N, J, d) directions, a quarter of a full
        # stack at d=16, and then dropped them: 1.13 full stacks with them,
        # 0.66 without
        prob, peak = self._generate_peak(2048, 16, 0.0)
        assert peak <= _full_stack_bytes(2048, 16)
        rippled = SyntheticSumProblem.generate(2048, 16, seed=0, curvature=2.0, coupling=0.5)
        assert _same_bits(prob.h, rippled.h) and _same_bits(prob.b, rippled.b)
        assert not prob.a_dirs.any() and prob.a_dirs.shape == (2048, 1, 16)

    def test_a_batch_gathers_a_chunk_at_a_time(self):
        prob = SyntheticSumProblem.generate(2048, 16, seed=0, coupling=0.5)
        idx = np.arange(prob.n_components - 1)
        w = np.ones(prob.dim)
        # one gathered chunk of H_i, and four (m, d) arrays: b_i, H_i w,
        # the gradients and one temporary
        budget = _full_stack_bytes(problems._CHUNK, prob.dim) + 4 * idx.size * w.nbytes
        for call in (
            lambda: prob.loss_grad_sub(w, idx),
            lambda: prob.component_grads(w, idx),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= budget  # a whole gather holds nearly one more stack


def _dense_hessian_cases(seed):
    """(problem, w, sample, reference Hessian) for the three rank-k
    hessian_sub overrides; the references are the formulas those overrides
    replace."""
    rng = rng_mod.stream(seed, "hessian")
    quad = quadratic_generate(d=30, keep_prob=0.4, seed=seed)
    mask = quad.draw_sample(rng, 7)
    w = rng.standard_normal(30)
    quad_ref = 2.0 * quad.a.T @ (np.mean(mask.a_keep, axis=0)[:, None] * quad.a)
    ssum = SyntheticSumProblem.generate(32, 12, seed=seed, curvature=2.0, coupling=0.5, freq=3.0)
    idx = ssum.draw_sample(rng, 5)
    w_sum = rng.standard_normal(12)
    hvp = ssum.hvp_sub(w_sum, idx, np.eye(12))
    logistic = LogisticProblem(*make_synthetic_logistic(n=200, d=9, seed=seed))
    rows = logistic.draw_sample(rng, 40)
    w_log = rng.standard_normal(9)
    hvp_log = logistic.hvp_sub(w_log, rows, np.eye(9))
    return [
        (quad, w, mask, 0.5 * (quad_ref + quad_ref.T)),
        (ssum, w_sum, idx, 0.5 * (hvp + hvp.T)),
        (logistic, w_log, rows, 0.5 * (hvp_log + hvp_log.T)),
    ]


class TestDenseHessians:
    @pytest.mark.parametrize("seed", range(4))
    def test_exactly_symmetric_and_equal_to_replaced_formula(self, seed):
        for prob, w, sample, ref in _dense_hessian_cases(seed):
            h = prob.hessian_sub(w, sample)
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_large_ripple_arguments_stay_finite(self):
        # cosh overflows far out along the ripple directions; sech is then 0
        prob = SyntheticSumProblem.generate(8, 5, seed=1, curvature=2.0, freq=1e3)
        idx = np.array([1, 4, 6])
        with np.errstate(over="raise"):
            h = prob.hessian_sub(1e6 * np.ones(5), idx)
        np.testing.assert_allclose(h, problems._unpack(prob.h, 5)[idx].mean(axis=0), rtol=0, atol=1e-300)

    def test_no_ripple_is_the_mean_component_hessian_bitwise(self):
        prob = SyntheticSumProblem.generate(8, 5, seed=2)
        idx = np.array([0, 3, 3, 7])
        assert np.array_equal(prob.hessian_sub(np.ones(5), idx), problems._unpack(prob.h, 5)[idx].mean(axis=0))


def _oracle_cases():
    x, y = make_synthetic_logistic(n=120, d=7, seed=5)
    return {
        "quadratic": quadratic_generate(d=9, keep_prob=0.6, seed=4),
        "logistic": LogisticProblem(x, y),
        "sum_quadratic": SyntheticSumProblem.generate(24, 6, seed=3),
        "sum_ripple": SyntheticSumProblem.generate(24, 6, seed=3, curvature=2.0, coupling=0.5),
    }


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
@pytest.mark.parametrize("size", [0, -1])
def test_draw_sample_rejects_size_below_one(name, size):
    with pytest.raises(ValueError, match="sample size"):
        _oracle_cases()[name].draw_sample(rng_mod.stream(0, "gradient"), size)


_ORACLES = _oracle_cases()


class TestOnePassPerDatum:
    @pytest.mark.parametrize("name", sorted(_ORACLES))
    @given(size=st.integers(1, 24), seed=st.integers(0, 2**16))
    @example(size=24, seed=0)  # covers a synthetic sum
    @settings(max_examples=40, deadline=None)
    def test_loss_grad_sub_is_the_component_mean(self, name, size, seed):
        # the batch gradient has one source; the component gradients the
        # approximate norm test reads average to it up to rounding
        oracle = _ORACLES[name]
        rng = rng_mod.stream(seed, "gradient")
        w = rng.standard_normal(oracle.dim)
        sample = oracle.draw_sample(rng, size)
        ref = oracle.component_grads(w, sample).mean(axis=0)
        grad = oracle.loss_grad_sub(w, sample)[1]
        assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["logistic", "sum_quadratic", "sum_ripple"])
    def test_full_passes_bitwise_equal_sub_passes_over_all(self, name):
        oracle = _oracle_cases()[name]
        every = np.arange(oracle.n_components)
        for seed in range(3):
            w = rng_mod.stream(seed, "init").standard_normal(oracle.dim)
            loss, grad = oracle.loss_grad_sub(w, every)
            assert oracle.loss_full(w) == loss
            assert np.array_equal(oracle.grad_full(w), grad)

    def test_full_passes_read_fortran_ordered_data_like_a_gather(self):
        x, y = make_synthetic_logistic(n=200, d=9, seed=7)
        oracle = LogisticProblem(np.asfortranarray(x), y)
        w = rng_mod.stream(0, "init").standard_normal(9)
        every = np.arange(200)
        loss, grad = oracle.loss_grad_sub(w, every)
        assert oracle.loss_full(w) == loss
        assert np.array_equal(oracle.grad_full(w), grad)

    @pytest.mark.parametrize("name", ["quadratic", "sum_ripple"])
    def test_second_optimum_call_computes_nothing(self, name, monkeypatch):
        oracle = _oracle_cases()[name]
        calls = []
        for attr in ("loss_full", "grad_full"):
            original = getattr(oracle, attr)
            monkeypatch.setattr(oracle, attr, lambda w, f=original, a=attr: calls.append(a) or f(w))
        monkeypatch.setattr(np.linalg, "solve", lambda *a, s=np.linalg.solve: calls.append("solve") or s(*a))
        first = oracle.optimum()
        assert "loss_full" in calls and "solve" in calls
        calls.clear()
        assert oracle.optimum() is first
        assert calls == []
        assert not first[0].flags.writeable


_SUMS = {
    "quadratic": SyntheticSumProblem.generate(24, 6, seed=3),
    "ripple": SyntheticSumProblem.generate(24, 6, seed=3, curvature=2.0, coupling=0.5),
}


# A logistic oracle whose X spans two full row blocks of the blocked pass
# and a partial third, so the tail block is exercised.
_BLOCK_ROWS = problems._BLOCK_BYTES // (8 * 64)
_BLOCKED = LogisticProblem(*make_synthetic_logistic(n=2 * _BLOCK_ROWS + 37, d=64, seed=9))


# d=300 as in the benchmark: 216 rows to a block, so a batch of 1500 spans
# seven blocks and a partial eighth.
_WIDE = LogisticProblem(*make_synthetic_logistic(n=3000, d=300, seed=11))
# an odd width, whose gemv kernels take their tail paths, and 216-row blocks
# with a short last block of 137 rows
_ODD = LogisticProblem(*make_synthetic_logistic(n=1001, d=301, seed=13))


def _gathered_batch(oracle, w, sample):
    """Batch loss and gradient from one gathered copy of the sample's rows."""
    xs, ys = oracle.x[sample], oracle.y[sample]
    z = ys * (xs @ w)
    reg = w / oracle.n
    loss = np.mean(np.logaddexp(0.0, -z)) + (w @ w) / (2 * oracle.n)
    return loss, (-ys * (1.0 - expit(z))) @ xs / sample.size + reg


class TestBlockedLogisticBatch:
    def _point_and_sample(self, seed, size=1500):
        rng = rng_mod.stream(seed, "gradient")
        return 0.1 * rng.standard_normal(_WIDE.dim), _WIDE.draw_sample(rng, size)

    @pytest.mark.parametrize("seed", range(3))
    def test_close_to_the_gathered_mean(self, seed):
        w, sample = self._point_and_sample(seed)
        loss, grad = _WIDE.loss_grad_sub(w, sample)
        ref_loss, ref_grad = _gathered_batch(_WIDE, w, sample)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)

    def test_a_repeated_index_counts_twice(self):
        w, sample = self._point_and_sample(4)
        repeated = np.concatenate([sample, sample[:400]])
        loss, grad = _WIDE.loss_grad_sub(w, repeated)
        ref_loss, ref_grad = _gathered_batch(_WIDE, w, repeated)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
        assert np.linalg.norm(grad - _WIDE.loss_grad_sub(w, sample)[1]) > 1e-6 * np.linalg.norm(ref_grad)

    def test_every_row_in_order_is_the_full_gradient(self):
        w, _ = self._point_and_sample(5)
        assert np.array_equal(_WIDE.loss_grad_sub(w, np.arange(_WIDE.n))[1], _WIDE.grad_full(w))

    def test_holds_no_gathered_copy_of_the_batch(self):
        w, sample = self._point_and_sample(6, size=2000)
        tracemalloc.start()
        try:
            _WIDE.loss_grad_sub(w, sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sample.size * _WIDE.x[0].nbytes


def _serial_pass(oracle, w, idx):
    """The blocked pass as one loop on the calling thread, adding each
    block's sum as it goes; ``idx=None`` reads every row in place."""
    rows_per_block = oracle._block_rows
    m = oracle.n if idx is None else idx.size
    z, total = np.empty(m), np.zeros(oracle.dim)
    with np.errstate(over="ignore"):
        for start in range(0, m, rows_per_block):
            block = slice(start, start + rows_per_block)
            rows = block if idx is None else idx[block]
            xb, yb = oracle.x[rows], oracle.y[rows]
            z[block] = yb * (xb @ w)
            total += oracle._coeff(yb, z[block]) @ xb
    return z, total


# a fresh interpreter on this checkout's source
_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(problems.__file__).parents[1])}

# a single-CPU process: its gathered passes run on the calling thread alone
_ONE_CPU_RUN = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hessavg.harness import ExperimentConfig, run_experiment
from hessavg.problems import pass_threads
assert pass_threads() == 1
run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])), out_dir=sys.argv[2])
"""


# a pass in a child forked after the parent's pool started its threads
_FORKED_PASS = """
import os, signal
import numpy as np
from hessavg.problems import LogisticProblem, make_synthetic_logistic, pass_threads
oracle = LogisticProblem(*make_synthetic_logistic(n=2000, d=300, seed=0))
w, idx = np.zeros(oracle.dim), np.arange(1000)
assert pass_threads() > 1
parent = oracle.loss_grad_sub(w, idx)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    child = oracle.loss_grad_sub(w, idx)
    os._exit(0 if child[0] == parent[0] and np.array_equal(child[1], parent[1]) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.fixture
def short_switch_interval():
    """The GIL changes hands as often as the interpreter lets it, until the test ends."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestGatheredPassThreads:
    """A logistic pass, gathered or full, shares its blocks among threads and
    keeps the bits of one serial loop, at every thread count."""

    # with 216 rows to a block: one block, two, and five
    @pytest.mark.parametrize("oracle", [_WIDE, _ODD], ids=["d300", "d301"])
    @pytest.mark.parametrize("size", [100, 400, 1000])
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_bitwise_the_serial_loop(self, monkeypatch, pool_of, short_switch_interval, oracle, size, threads):
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        pool_of(max(1, threads - 1))  # each run on a thread of its own, on any host
        rng = rng_mod.stream(size, "gradient")
        w = 0.1 * rng.standard_normal(oracle.dim)
        sample = oracle.draw_sample(rng, size)
        repeated = np.concatenate([sample, sample[: size // 2]])
        for idx in (sample, repeated):
            z, total = _serial_pass(oracle, w, idx)
            got_z, got_total = oracle._blocked_pass(w, idx)
            assert np.array_equal(got_z, z) and np.array_equal(got_total, total)
            loss, grad = oracle.loss_grad_sub(w, idx)
            assert loss == oracle._loss_of(w, z)
            assert np.array_equal(grad, total / idx.size + w / oracle.n)
        z, total = _serial_pass(oracle, w, None)
        got_z, got_total = oracle._blocked_pass(w)
        assert np.array_equal(got_z, z) and np.array_equal(got_total, total)

    @pytest.mark.parametrize("oracle", [_WIDE, _ODD], ids=["d300", "d301"])
    def test_the_pass_products_are_those_of_matmul(self, oracle):
        # np.dot, which the pass calls for its GIL-free BLAS call, on each
        # layout the pass feeds it: a block of X in place, a view of the
        # gathered buffer, and the short last block
        rows = oracle._block_rows
        rng = rng_mod.stream(3, "gradient")
        w = rng.standard_normal(oracle.dim)
        idx = oracle.draw_sample(rng, rows - 5)
        gathered = np.take(oracle.x, idx, axis=0, out=np.empty((rows, oracle.dim))[: idx.size], mode="clip")
        short = oracle.x[oracle.n // rows * rows :]
        assert 0 < short.shape[0] < rows
        for xb in (oracle.x[rows : 2 * rows], gathered, short):
            coeff = rng.standard_normal(xb.shape[0])
            sums = np.empty((2, oracle.dim))
            np.dot(coeff, xb, out=sums[1])
            assert np.array_equal(np.dot(xb, w), xb @ w)
            assert np.array_equal(sums[1], coeff @ xb)

    def test_the_caller_runs_the_first_blocks(self, monkeypatch):
        monkeypatch.setattr(problems, "pass_threads", lambda: 2)
        ran = []
        blocks = LogisticProblem._pass_blocks

        def recorded(oracle, w, idx, z, sums, run):
            ran.append((threading.get_ident(), list(run)))
            blocks(oracle, w, idx, z, sums, run)

        monkeypatch.setattr(LogisticProblem, "_pass_blocks", recorded)
        rng = rng_mod.stream(7, "gradient")

        def runs_by_thread():
            caller = [run for ident, run in ran if ident == threading.get_ident()]
            other = [run for ident, run in ran if ident != threading.get_ident()]
            ran.clear()
            return caller, other

        _WIDE.loss_grad_sub(np.zeros(_WIDE.dim), _WIDE.draw_sample(rng, 1000))
        assert runs_by_thread() == ([[0, 1, 2]], [[3, 4]])
        # the full pass, in place, is shared too
        _WIDE.grad_full(np.zeros(_WIDE.dim))
        assert runs_by_thread() == ([list(range(7))], [list(range(7, 14))])

    @pytest.mark.skipif(not hasattr(os, "fork") or problems.pass_threads() < 2, reason="needs fork and two CPUs")
    def test_a_forked_child_makes_its_own_pool(self):
        done = subprocess.run([sys.executable, "-c", _FORKED_PASS], env=_SRC_ENV, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_a_run_on_one_cpu_writes_the_same_trace(self, tmp_path):
        raw = {
            "problem": {"kind": "synthetic_logistic", "n": 2000, "d": 300, "seed": 0},
            "method": {"name": "dan", "eps": 1e-2},
            # batches of 200 rows, then of 1200: one block, then six
            "sampling": {"grad": {"mode": "exact_norm_test", "initial_size": 200, "cap": 1200}, "hess": {"size": 64}},
            "schedules": {"alpha": {"kind": "constant", "alpha": 0.5}},
            "epochs": 6,
            "trace_interval": 1,
        }
        args = [sys.executable, "-c", _ONE_CPU_RUN, json.dumps(raw), str(tmp_path / "one")]
        done = subprocess.run(args, env=_SRC_ENV, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        run_experiment(ExperimentConfig.from_dict(raw), out_dir=str(tmp_path / "here"))
        trace = (tmp_path / "here" / "trace.csv").read_bytes()
        assert {int(line.split(b",")[4]) for line in trace.splitlines()[2:]} == {200, 1200}
        assert (tmp_path / "one" / "trace.csv").read_bytes() == trace


@pytest.fixture
def pool_of(monkeypatch):
    """``pool_of(n)`` serves the process's shared passes from ``n`` threads of
    the test's own, ended after it."""
    pools = []

    def start(n):
        tasks = queue.SimpleQueue()
        threads = [threading.Thread(target=problems._serve_runs, args=(tasks,)) for _ in range(n)]
        for thread in threads:
            thread.start()
        pools.append((tasks, threads))
        monkeypatch.setattr(problems, "_pass_pool", lambda: tasks)

    yield start
    for tasks, threads in pools:
        for _ in threads:
            tasks.put(None)  # ends a thread
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)


class TestShareRuns:
    """``_share_runs`` splits its items as ``np.array_split`` does, runs the
    first run on the caller, and lets no error out before every run ends."""

    @pytest.mark.parametrize("items, threads", [(5, 2), (7, 3), (2, 8), (1, 1), (100, 8)])
    def test_runs_are_the_array_split(self, items, threads):
        runs = {}
        problems._share_runs(lambda k, run: runs.setdefault(k, (threading.get_ident(), list(run))), items, threads)
        want = [list(run) for run in np.array_split(np.arange(items), min(threads, items))]
        assert [runs[k][1] for k in sorted(runs)] == want
        assert runs[0][0] == threading.get_ident()
        assert all(runs[k][0] != threading.get_ident() for k in sorted(runs)[1:])

    def test_a_failed_run_raises_in_the_caller(self):
        def work(k, run):
            if k == 1:
                raise ValueError(f"run {list(run)}")

        with pytest.raises(ValueError, match=r"run \[2, 3\]"):
            problems._share_runs(work, 4, 2)

    def test_a_raising_caller_waits_for_the_other_runs(self):
        caller_failed, done = threading.Event(), []

        def work(k, run):
            if k == 0:
                caller_failed.set()
                raise KeyError("caller")
            caller_failed.wait(10)
            time.sleep(0.05)
            done.append(k)

        with pytest.raises(KeyError, match="caller"):
            problems._share_runs(work, 3, 3)
        assert sorted(done) == [1, 2]

    def test_every_run_ends_before_a_failed_run_raises(self):
        done = []

        def work(k, run):
            if k == 1:
                raise ValueError("run 1")
            if k == 2:
                time.sleep(0.1)
                done.append(k)

        with pytest.raises(ValueError, match="run 1"):
            problems._share_runs(work, 3, 3)
        assert done == [2]

    def test_an_idle_thread_holds_no_work(self):
        # a pass's work holds its arrays, which a thread must not keep alive
        def work(k, run):
            pass

        ref = weakref.ref(work)
        problems._share_runs(work, 2, 2)
        del work
        assert ref() is None

    def test_the_first_failed_run_wins(self, pool_of):
        pool_of(2)

        def work(k, run):
            if k == 1:
                time.sleep(0.05)  # run 2 fails first
            if k:
                raise ValueError(f"run {k}")

        with pytest.raises(ValueError, match="run 1"):
            problems._share_runs(work, 3, 3)

    def test_the_callers_error_wins(self):
        def work(k, run):
            raise ValueError(f"run {k}")

        with pytest.raises(ValueError, match="run 0"):
            problems._share_runs(work, 2, 2)


# a coupled build in a child forked after the parent's build started the
# pool's threads
_FORKED_BUILD = """
import os, signal
from hessavg.problems import SyntheticSumProblem, pass_threads

def build():
    prob = SyntheticSumProblem.generate(300, 20, seed=3, curvature=2.0, coupling=0.5)
    return b"".join(a.tobytes() for a in (prob.h, prob.b, prob.a_dirs, prob.phases))

assert pass_threads() > 1
parent = build()
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if build() == parent else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

# the bench-sized coupled build in a single-CPU process, which starts no thread
_ONE_CPU_BUILD = """
import hashlib, json, os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hessavg import problems
assert problems.pass_threads() == 1
prob = problems.SyntheticSumProblem.generate(1024, 50, seed=0, curvature=2.0, coupling=0.5)
digest = hashlib.sha256()
for arr in (problems._unpack(prob.h, 50), prob.b, prob.a_dirs, prob.phases):
    digest.update(arr.tobytes())
print(json.dumps([digest.hexdigest(), threading.active_count(), "concurrent.futures" in sys.modules]))
"""


class TestSharedBuild:
    """The coupled build's norm screen and conjugation share their chunks
    among threads and keep the bits of the serial loop at every thread
    count."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    @pytest.mark.parametrize("curvature", [0.0, 2.0])
    # fewer chunks than threads, a short last chunk, and the goldens' shape
    @pytest.mark.parametrize("n, d", [(2, 5), (100, 7), (64, 20)])
    def test_bitwise_the_serial_loop(self, monkeypatch, n, d, curvature, threads):
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        prob = SyntheticSumProblem.generate(n, d, seed=n + d, curvature=curvature, coupling=0.5)
        h, b, a, phases = _coupled_reference(n, d, n + d)
        assert _same_bits(problems._unpack(prob.h, d), h) and _same_bits(prob.b, b)
        if curvature > 0:
            assert _same_bits(prob.a_dirs, a) and _same_bits(prob.phases, phases)

    def test_more_threads_than_cpus_switching_often(self, monkeypatch, pool_of):
        # 8 threads that switch every microsecond: a chunk that a run lost
        # or wrote twice would move the bits
        pool_of(7)
        monkeypatch.setattr(problems, "pass_threads", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            prob = SyntheticSumProblem.generate(300, 6, seed=5, curvature=2.0, coupling=0.5)
        finally:
            sys.setswitchinterval(interval)
        assert _same_bits(problems._unpack(prob.h, 6), _coupled_reference(300, 6, 5)[0])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_passes_allocate_only_their_buffers(self, monkeypatch, threads):
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        n, d = 1024, 50
        packed = problems._symmetric_normals(np.random.Generator(np.random.Philox(9)), n, d)
        root = np.sqrt(np.geomspace(0.5, 3.0, d))
        frame = np.linalg.qr(rng_mod.stream(9, "init").standard_normal((d, d)))[0]
        buffers = _full_stack_bytes(2 * problems._CHUNK, d)
        for call in (
            lambda: problems._max_spectral_norm(packed, d),
            lambda: problems._conjugate_in_place(packed, root, frame),
        ):
            call()  # fills the index maps' cache and starts the pool's thread
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # besides the buffers: the screen's N-vectors, the conjugation's
            # d×d factors, and no temporary of even a few matrices
            assert peak <= buffers + 3 * n * 8 + _full_stack_bytes(4, d)

    def test_the_caller_runs_the_first_chunks(self, monkeypatch):
        monkeypatch.setattr(problems, "pass_threads", lambda: 2)
        caller, passes = threading.get_ident(), []
        shared = problems._shared_chunks

        def recorded(n, d, work):
            ran = []

            def logged(c, g, h):
                ran.append((threading.get_ident() == caller, c.start, c.stop))
                work(c, g, h)

            shared(n, d, logged)
            passes.append(sorted(ran, key=lambda r: r[1]))

        monkeypatch.setattr(problems, "_shared_chunks", recorded)
        SyntheticSumProblem.generate(100, 7, seed=0, coupling=0.5)
        # chunks of 32 matrices: two each, the caller the first two
        runs = [(True, 0, 32), (True, 32, 64), (False, 64, 96), (False, 96, 100)]
        assert passes == [runs, runs]  # the norm screen, then the conjugation

    @pytest.mark.skipif(not hasattr(os, "fork") or problems.pass_threads() < 2, reason="needs fork and two CPUs")
    def test_a_child_forked_after_a_build_builds_the_same(self):
        done = subprocess.run([sys.executable, "-c", _FORKED_BUILD], env=_SRC_ENV, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_a_build_on_one_cpu_keeps_the_pinned_bits(self):
        done = subprocess.run([sys.executable, "-c", _ONE_CPU_BUILD], env=_SRC_ENV, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # the digest test_bench_sized_instance_keeps_its_bits pins
        pinned = "f287e28a207fb2acda62a9ab9ace5fddbc6a5261b4b2c89ecf029e1a6eb21918"
        assert json.loads(done.stdout) == [pinned, 1, False]


# Each finite-sum oracle: both synthetic sums, and logistic oracles of
# several row blocks, of an odd width and of the benchmark's width.
_FINITE_SUMS = {**_SUMS, "logistic_blocked": _BLOCKED, "logistic_odd": _ODD, "logistic_wide": _WIDE}


class TestDrawSample:
    """A finite-sum draw of size N is ``arange(N)`` and leaves the generator
    where it was, the next values equal to those of an untouched twin; the
    batch values of that draw are the full values bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_FINITE_SUMS))
    def test_a_draw_of_every_component_is_the_full_sum(self, kind):
        oracle = _FINITE_SUMS[kind]
        rng, twin = rng_mod.stream(3, "gradient"), rng_mod.stream(3, "gradient")
        sample = oracle.draw_sample(rng, oracle.n_components)
        assert np.array_equal(sample, np.arange(oracle.n_components))
        assert np.array_equal(rng.random(8), twin.random(8))
        for seed in range(3):
            w = rng_mod.stream(seed, "init").standard_normal(oracle.dim)
            loss, grad = oracle.loss_grad_sub(w, sample)
            assert loss == oracle.loss_full(w)
            assert np.array_equal(grad, oracle.grad_full(w))

    @pytest.mark.parametrize("kind", sorted(_FINITE_SUMS))
    def test_size_below_n_still_draws(self, kind):
        oracle = _FINITE_SUMS[kind]
        rng, twin = rng_mod.stream(3, "gradient"), rng_mod.stream(3, "gradient")
        sample = oracle.draw_sample(rng, oracle.n_components - 1)
        assert np.unique(sample).size == sample.size == oracle.n_components - 1
        assert not np.array_equal(rng.random(8), twin.random(8))


def _size_n_sample(rng, n, order):
    """``arange(n)``, a permutation, or a permutation with one index repeated."""
    if order == "arange":
        return np.arange(n)
    sample = rng.permutation(n)
    if order == "repeat":
        i, j = rng.choice(n, size=2, replace=False)
        sample[i] = sample[j]
    return sample


class TestCoveringBatch:
    """A batch that holds every component exactly once has the full values."""

    @given(
        kind=st.sampled_from(sorted(_SUMS)),
        order=st.sampled_from(["arange", "permutation", "repeat"]),
        seed=st.integers(0, 2**16),
    )
    @example(kind="quadratic", order="permutation", seed=0)
    @example(kind="ripple", order="permutation", seed=0)
    @example(kind="ripple", order="repeat", seed=0)
    @settings(max_examples=60, deadline=None)
    def test_size_n_batch_is_the_full_value_exactly_when_it_covers(self, kind, order, seed):
        oracle = _SUMS[kind]
        rng = rng_mod.stream(seed, "gradient")
        w = rng.standard_normal(oracle.dim)
        sample = _size_n_sample(rng, oracle.n_components, order)
        if order == "repeat":
            # not a cover: the gathered batch, read row by row
            ref_loss = oracle._loss_of(w, oracle._terms(w, sample))
            ref_grad = oracle.component_grads(w, sample).mean(axis=0)
        else:
            ref_loss, ref_grad = oracle.loss_full(w), oracle.grad_full(w)
            assert np.array_equal(oracle.hessian_sub(w, sample), oracle.hessian_full(w))
        loss, grad = oracle.loss_grad_sub(w, sample)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("ripple", [{}, {"curvature": 2.0, "coupling": 0.5}], ids=["quadratic", "ripple"])
    def test_full_values_read_no_component_hessian(self, ripple):
        oracle = SyntheticSumProblem.generate(24, 6, seed=3, **ripple)
        n, every = oracle.n_components, np.arange(24)
        points = [rng_mod.stream(seed, "init").standard_normal(6) for seed in range(3)]
        refs = [
            (
                np.mean([oracle.loss_grad_sub(w, [i])[0] for i in range(n)]),
                oracle.component_grads(w, every).mean(axis=0),
                np.mean([oracle.hessian_sub(w, [i]) for i in range(n)], axis=0),
            )
            for w in points
        ]
        oracle.h = None
        for w, (ref_loss, ref_grad, ref_hess) in zip(points, refs):
            loss, grad = oracle.loss_full(w), oracle.grad_full(w)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
            hess = oracle.hessian_full(w)
            assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
            cover = rng_mod.stream(0, "gradient").permutation(n)
            batch_loss, batch_grad = oracle.loss_grad_sub(w, cover)
            assert batch_loss == loss
            assert np.array_equal(batch_grad, grad)
        assert np.linalg.norm(oracle.grad_full(oracle.optimum()[0])) <= 1e-12


def _sum_sample_calls(oracle):
    w = np.zeros(oracle.dim)
    return {
        "loss_grad_sub": lambda s: oracle.loss_grad_sub(w, s),
        "component_grads": lambda s: oracle.component_grads(w, s),
        "hvp_sub": lambda s: oracle.hvp_sub(w, s, np.ones(oracle.dim)),
    }


class TestSyntheticSumSampleValidation:
    @pytest.mark.parametrize("kind", sorted(_SUMS))
    @pytest.mark.parametrize("bad", [[-1], [0, 24]])
    def test_out_of_range_index_rejected(self, kind, bad):
        for call in _sum_sample_calls(_SUMS[kind]).values():
            with pytest.raises(ValueError, match="out of range"):
                call(np.array(bad))

    @pytest.mark.parametrize("kind", sorted(_SUMS))
    def test_empty_sample_rejected(self, kind):
        for call in _sum_sample_calls(_SUMS[kind]).values():
            with pytest.raises(ValueError, match="empty"):
                call(np.array([], dtype=int))
