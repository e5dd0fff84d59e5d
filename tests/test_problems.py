import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessavg.problems import (
    FiniteSumOracle,
    LogisticProblem,
    ProblemConstants,
    QuadraticProblem,
    SyntheticSumProblem,
    estimate_constants,
    make_synthetic_logistic,
    quadratic_generate,
)
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
        assert np.linalg.norm(prob.grad_sub(w, sample)) <= 1e-9

    def test_identity_all_keep_at_zero(self):
        b = np.array([1.0, -2.0, 0.5])
        prob = QuadraticProblem(np.eye(3), b, keep_prob=1.0)
        sample = prob.draw_sample(rng_mod.stream(0, "gradient"), 4)
        np.testing.assert_allclose(prob.grad_sub(np.zeros(3), sample), -2 * b, atol=1e-14)

    def test_monte_carlo_grad_unbiased_at_optimum(self, quad):
        w_star, _ = quad.optimum()
        rng = rng_mod.stream(11, "gradient")
        m = 100_000
        comps = quad.component_grads(w_star, quad.draw_sample(rng, m))
        mean = comps.mean(axis=0)
        se = np.linalg.norm(comps.std(axis=0)) / np.sqrt(m)
        assert np.linalg.norm(mean) <= 3 * se

    def test_noise_second_moment_matches_monte_carlo(self, quad):
        rng = rng_mod.stream(12, "gradient")
        w = rng.standard_normal(quad.dim)
        gf = quad.grad_full(w)
        comps = quad.component_grads(w, quad.draw_sample(rng, 100_000))
        mc = np.mean(np.sum((comps - gf) ** 2, axis=1))
        assert mc == pytest.approx(quad.grad_noise_second_moment(w), rel=0.02)

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
            g = quad.grad_sub(w, sample)
            g_fd = fd_gradient(lambda u: quad.loss_sub(u, sample), w)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            v = rng.standard_normal(quad.dim)
            hv = quad.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: quad.grad_sub(u, sample), w, v)
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
        assert logistic.loss_sub(np.zeros(logistic.dim), sample) == pytest.approx(np.log(2.0))

    def test_grad_at_zero(self, logistic):
        sample = np.arange(40)
        expected = -(logistic.y[sample][:, None] * logistic.x[sample]).sum(axis=0) / (2 * 40)
        np.testing.assert_allclose(
            logistic.grad_sub(np.zeros(logistic.dim), sample), expected, atol=1e-12
        )

    def test_gradient_fd(self, logistic):
        rng = rng_mod.stream(20, "gradient")
        for _ in range(5):
            w = rng.standard_normal(logistic.dim)
            sample = logistic.draw_sample(rng, 25)
            g = logistic.grad_sub(w, sample)
            g_fd = fd_gradient(lambda u: logistic.loss_sub(u, sample), w)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_hvp_fd(self, logistic):
        rng = rng_mod.stream(21, "gradient")
        for _ in range(5):
            w = rng.standard_normal(logistic.dim)
            sample = logistic.draw_sample(rng, 25)
            v = rng.standard_normal(logistic.dim)
            hv = logistic.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: logistic.grad_sub(u, sample), w, v)
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
        g_sub = logistic.grad_sub(w, np.arange(logistic.n))
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
        assert np.isfinite(logistic.loss_sub(w, sample))
        assert np.all(np.isfinite(logistic.grad_sub(w, sample)))

    def test_empty_sample_rejected(self, logistic):
        with pytest.raises(ValueError):
            logistic.loss_sub(np.zeros(logistic.dim), np.array([], dtype=int))

    def test_labels_validated(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(np.ones((3, 2)), np.array([0.0, 1.0, -1.0]))


class TestSyntheticSum:
    def test_optimum_closed_form_when_quadratic(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=0)
        w_star, f_star = prob.optimum()
        assert np.linalg.norm(prob.grad_full(w_star)) <= 1e-10
        expected = np.linalg.solve(prob.h.mean(axis=0), prob.b.mean(axis=0))
        np.testing.assert_allclose(w_star, expected, atol=1e-10)

    def test_optimum_with_ripples(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=0, curvature=2.0, coupling=0.5)
        w_star, _ = prob.optimum()
        assert np.linalg.norm(prob.grad_full(w_star)) <= 1e-12

    def test_component_hessians_distinct_and_pd(self):
        prob = SyntheticSumProblem.generate(16, 20, seed=5, coupling=0.9)
        mins = [np.linalg.eigvalsh(h)[0] for h in prob.h]
        assert min(mins) > 0
        for i in range(1, 16):
            assert np.linalg.norm(prob.h[i] - prob.h[0]) > 1e-6

    def test_coupled_mean_is_base(self):
        prob = SyntheticSumProblem.generate(16, 20, seed=5, coupling=0.9, eig_range=(0.02, 3.0))
        eigs = np.linalg.eigvalsh(prob.h.mean(axis=0))
        assert eigs[0] == pytest.approx(0.02, rel=1e-6)
        assert eigs[-1] == pytest.approx(3.0, rel=1e-6)

    def test_gradient_and_hvp_fd(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=1, curvature=2.0, coupling=0.5, freq=7.0)
        rng = rng_mod.stream(30, "gradient")
        for _ in range(5):
            w = rng.standard_normal(6)
            sample = prob.draw_sample(rng, 4)
            g = prob.grad_sub(w, sample)
            g_fd = fd_gradient(lambda u: prob.loss_sub(u, sample), w, h=1e-7)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * max(np.linalg.norm(g), 1.0)
            v = rng.standard_normal(6)
            hv = prob.hvp_sub(w, sample, v)
            hv_fd = fd_hvp(lambda u: prob.grad_sub(u, sample), w, v, h=1e-7)
            assert np.linalg.norm(hv - hv_fd) <= 1e-4 * max(np.linalg.norm(hv), 1.0)

    def test_hessian_sub_matches_hvp_identity(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=2, curvature=1.0, coupling=0.5)
        rng = rng_mod.stream(31, "hessian")
        w = rng.standard_normal(6)
        sample = prob.draw_sample(rng, 4)
        h = prob.hessian_sub(w, sample)
        for _ in range(5):
            v = rng.standard_normal(6)
            np.testing.assert_allclose(h @ v, prob.hvp_sub(w, sample, v), atol=1e-10)


class TestConstants:
    def test_quadratic_unmasked_spectral_estimate(self):
        prob = quadratic_generate(d=30, keep_prob=1.0, seed=6)
        rng = rng_mod.stream(40, "probes")
        probes = [rng.standard_normal(30) for _ in range(3)]
        samples = [prob.draw_sample(rng, 4) for _ in range(3)]
        constants = estimate_constants(prob, probes, samples, rng)
        expected = 2 * np.linalg.eigvalsh(prob.a)[-1] ** 2
        assert constants.L == pytest.approx(expected, rel=0.05)

    def test_logistic_upper_bound(self):
        x, y = make_synthetic_logistic(n=200, d=8, seed=3)
        prob = LogisticProblem(x, y)
        rng = rng_mod.stream(41, "probes")
        probes = [rng.standard_normal(8) * 0.3 for _ in range(3)]
        samples = [prob.draw_sample(rng, 64) for _ in range(3)]
        constants = estimate_constants(prob, probes, samples, rng)
        bound = np.max(np.einsum("ij,ij->i", x, x)) / 4 + 1 / prob.n
        assert constants.L <= bound * 1.05

    def test_single_component_zero_variance(self):
        prob = SyntheticSumProblem.generate(1, 4, seed=0)
        rng = rng_mod.stream(42, "probes")
        probes = [rng.standard_normal(4) for _ in range(2)]
        samples = [np.array([0]) for _ in range(2)]
        constants = estimate_constants(prob, probes, samples, rng)
        assert constants.sigma2_g == 0.0

    def test_requires_two_probes(self):
        prob = SyntheticSumProblem.generate(4, 4, seed=0)
        with pytest.raises(ValueError):
            estimate_constants(prob, [np.zeros(4)], [np.array([0])])

    def test_one_sample_per_probe_point(self):
        # every probe point is used, so a missing sample is an error
        prob = SyntheticSumProblem.generate(4, 4, seed=0)
        rng = rng_mod.stream(43, "probes")
        with pytest.raises(ValueError, match="one sample per probe point"):
            estimate_constants(prob, [np.zeros(4), np.ones(4)], [np.array([0, 1])], rng)

    def test_requires_an_explicit_stream(self):
        prob = SyntheticSumProblem.generate(4, 4, seed=0)
        probes = [np.zeros(4), np.ones(4)]
        with pytest.raises(ValueError, match="rng"):
            estimate_constants(prob, probes, [np.array([0]), np.array([1])])

    def test_mu_tilde_constraint(self):
        with pytest.raises(ValueError, match="mu_tilde"):
            ProblemConstants(mu=1.0, mu_tilde=0.75)

    def test_nonnegative_fields(self):
        with pytest.raises(ValueError):
            ProblemConstants(sigma2_g=-1.0)


def _oracle_cases():
    x, y = make_synthetic_logistic(n=120, d=7, seed=5)
    return {
        "quadratic": quadratic_generate(d=9, keep_prob=0.6, seed=4),
        "logistic": LogisticProblem(x, y),
        "sum_quadratic": SyntheticSumProblem.generate(24, 6, seed=3),
        "sum_ripple": SyntheticSumProblem.generate(24, 6, seed=3, curvature=2.0, coupling=0.5),
    }


class _DefaultFused(LogisticProblem):
    """Keeps the base-class ``loss_grad_sub``, which calls the two methods."""

    loss_grad_sub = FiniteSumOracle.loss_grad_sub


class TestOnePassPerDatum:
    @pytest.mark.parametrize("name", ["quadratic", "logistic", "sum_quadratic", "sum_ripple", "default"])
    def test_loss_grad_sub_is_bitwise_the_two_calls(self, name):
        if name == "default":
            oracle = _DefaultFused(*make_synthetic_logistic(n=50, d=4, seed=1))
        else:
            oracle = _oracle_cases()[name]
        rng = rng_mod.stream(6, "gradient")
        w = rng.standard_normal(oracle.dim)
        sample = oracle.draw_sample(rng, 11)
        loss, grad = oracle.loss_grad_sub(w, sample)
        assert loss == oracle.loss_sub(w, sample)
        assert np.array_equal(grad, oracle.grad_sub(w, sample))

    @pytest.mark.parametrize("name", ["logistic", "sum_quadratic", "sum_ripple"])
    def test_full_passes_bitwise_equal_sub_passes_over_all(self, name):
        oracle = _oracle_cases()[name]
        every = np.arange(oracle.n_components)
        for seed in range(3):
            w = rng_mod.stream(seed, "init").standard_normal(oracle.dim)
            assert oracle.loss_full(w) == oracle.loss_sub(w, every)
            assert np.array_equal(oracle.grad_full(w), oracle.grad_sub(w, every))

    def test_full_passes_read_fortran_ordered_data_like_a_gather(self):
        x, y = make_synthetic_logistic(n=200, d=9, seed=7)
        oracle = LogisticProblem(np.asfortranarray(x), y)
        w = rng_mod.stream(0, "init").standard_normal(9)
        every = np.arange(200)
        assert oracle.loss_full(w) == oracle.loss_sub(w, every)
        assert np.array_equal(oracle.grad_full(w), oracle.grad_sub(w, every))

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


class TestBatchFromFullPass:
    @given(kind=st.sampled_from(sorted(_SUMS)), size=st.integers(1, 24), seed=st.integers(0, 2**16))
    @example(kind="quadratic", size=24, seed=0)
    @example(kind="ripple", size=24, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_synthetic_sum_is_bitwise_the_separate_calls(self, kind, size, seed):
        oracle = _SUMS[kind]
        rng = rng_mod.stream(seed, "gradient")
        w = rng.standard_normal(oracle.dim)
        sample = oracle.draw_sample(rng, size)
        loss, grad, full = oracle.loss_grad_sub_full(w, sample)
        ref_loss, ref_grad = oracle.loss_grad_sub(w, sample)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(full, oracle.grad_full(w))

    @pytest.mark.parametrize("name", ["quadratic", "logistic"])
    def test_default_is_bitwise_the_separate_calls(self, name):
        oracle = _oracle_cases()[name]
        assert type(oracle).loss_grad_sub_full is FiniteSumOracle.loss_grad_sub_full
        rng = rng_mod.stream(2, "gradient")
        w = rng.standard_normal(oracle.dim)
        sample = oracle.draw_sample(rng, 11)
        loss, grad, full = oracle.loss_grad_sub_full(w, sample)
        ref_loss, ref_grad = oracle.loss_grad_sub(w, sample)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(full, oracle.grad_full(w))


def _sum_sample_calls(oracle):
    w = np.zeros(oracle.dim)
    return {
        "loss_sub": lambda s: oracle.loss_sub(w, s),
        "grad_sub": lambda s: oracle.grad_sub(w, s),
        "component_grads": lambda s: oracle.component_grads(w, s),
        "hvp_sub": lambda s: oracle.hvp_sub(w, s, np.ones(oracle.dim)),
        "loss_grad_sub_full": lambda s: oracle.loss_grad_sub_full(w, s),
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
