from dataclasses import dataclass, field
from types import SimpleNamespace

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg.optimizers import MethodSpec, _run_controller
from hessavg.problems import SyntheticSumProblem, quadratic_generate
from hessavg.sampling import (
    CyclicSampler,
    GradSampleController,
    approx_norm_terms,
    exact_norm_terms,
    IidSampler,
)
from hessavg import rng as rng_mod


class TestCyclicSampler:
    def test_identity_partition(self):
        sampler = CyclicSampler(6, 2, seed=None)
        blocks = [sampler.next_block(j, None, None).tolist() for j in range(6)]
        assert blocks == [[0, 1], [2, 3], [4, 5], [0, 1], [2, 3], [4, 5]]

    def test_single_block(self):
        sampler = CyclicSampler(4, 4, seed=None)
        for j in range(3):
            assert sampler.next_block(j, None, None).tolist() == [0, 1, 2, 3]

    def test_divisibility_required(self):
        # it named the parameters: "block_size 4 must divide n 6"
        with pytest.raises(ValueError, match="^'size' must divide the problem's component count 6, got 4$"):
            CyclicSampler(6, 4)

    def test_block_size_at_least_one(self):
        with pytest.raises(ValueError, match="^'size' must be >= 1, got 0$"):
            CyclicSampler(6, 0)

    def test_negative_seed_refused(self):
        # numpy's "expected non-negative integer" named no key
        with pytest.raises(ValueError, match="^'seed' must be >= 0, got -1$"):
            CyclicSampler(6, 3, seed=-1)

    def test_seeded_partition_fixed_across_cycles(self):
        sampler = CyclicSampler(12, 3, seed=9)
        first = [sampler.next_block(j, None, None).tolist() for j in range(4)]
        second = [sampler.next_block(j, None, None).tolist() for j in range(4, 8)]
        assert first == second
        flat = sorted(i for b in first for i in b)
        assert flat == list(range(12))

    def test_cycle_mean_equals_full_average(self):
        # constant component Hessians: averaging whole cycles recovers the mean
        prob = SyntheticSumProblem.generate(12, 5, seed=1)
        sampler = CyclicSampler(12, 3, seed=4)
        w = np.zeros(5)
        acc = np.zeros((5, 5))
        count = 0
        full = prob.hessian_full(w)
        for cycle in range(3):
            for _ in range(4):
                acc += prob.hessian_sub(w, sampler.next_block(count, None, None))
                count += 1
            np.testing.assert_allclose(acc / count, full, atol=1e-13)


class TestIidSampler:
    def test_draws_through_oracle(self):
        prob = SyntheticSumProblem.generate(10, 4, seed=0)
        sampler = IidSampler(3)
        rng = rng_mod.stream(0, "hessian")
        seen = set()
        for j in range(20):
            block = sampler.next_block(j, prob, rng)
            assert len(block) == 3
            assert len(set(block.tolist())) == 3
            seen.add(tuple(sorted(block.tolist())))
        assert len(seen) > 1

    def test_block_size_at_least_one(self):
        with pytest.raises(ValueError, match="^'size' must be >= 1, got 0$"):
            IidSampler(0)


@dataclass(frozen=True)
class _RecordingController(GradSampleController):
    recorded: list = field(default_factory=list)

    def record_test(self, passed, lhs, rhs, current):
        self.recorded.append((passed, lhs, rhs))
        return super().record_test(passed, lhs, rhs, current)


def step_rule(g, theta, iota, full_grad=None, comps=None, inverse_of=None):
    """The norm test as a step runs it: the ``(passed, lhs, rhs)`` that
    ``optimizers._run_controller`` hands the controller.

    ``comps`` selects the approximate test, ``full_grad`` the exact one, and
    ``inverse_of`` stands in for the modified averaged Hessian that weights
    the exact test.
    """
    mode = "exact_norm_test" if comps is None else "approx_norm_test"
    a_mode = "identity" if inverse_of is None else "inverse_hessian"
    ctx = SimpleNamespace(controller=_RecordingController(mode, (1,), 2**16, a_mode=a_mode), method=MethodSpec(name="fan"))
    state = SimpleNamespace(avg=SimpleNamespace(modified=lambda: (inverse_of, False)), batch=1)
    _run_controller(ctx, state, np.asarray(g, dtype=float), comps, full_grad, theta, iota)
    (recorded,) = ctx.controller.recorded
    return recorded


class TestNormTests:
    def test_exact_gradient_always_passes(self):
        g = np.array([1.0, 2.0])
        assert step_rule(g, theta=0.0, iota=0.0, full_grad=g) == (True, 0.0, 0.0)

    def test_zero_tolerance_fails_on_mismatch(self):
        passed, _, _ = step_rule(np.array([1.0, 0.0]), 0.0, 0.0, full_grad=np.array([1.0, 0.1]))
        assert not passed

    def test_boundary_case(self):
        # ||delta||^2 = 0.25 vs theta^2 ||grad||^2 = 0.01 * 25 = 0.25
        g = np.array([3.0, 4.5])
        full = np.array([3.0, 4.0])
        assert step_rule(g, theta=0.1, iota=0.0, full_grad=full)[0]
        assert not step_rule(g, theta=0.0999, iota=0.0, full_grad=full)[0]

    def test_weighted_mode(self):
        h = np.diag([4.0, 1.0])
        g = np.array([1.2, 0.0])
        full = np.array([1.0, 0.0])
        # ||delta||_{H^{-1}}^2 = 0.04/4 = 0.01; rhs = theta^2 * 1/4
        assert step_rule(g, theta=0.2, iota=0.0, full_grad=full, inverse_of=h)[0]
        assert not step_rule(g, theta=0.19, iota=0.0, full_grad=full, inverse_of=h)[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_norm_terms(np.ones(2), np.ones(3))

    def test_approx_equal_components_pass(self):
        comps = np.tile([1.0, 2.0], (5, 1))
        assert step_rule(comps.mean(axis=0), theta=0.0, iota=0.0, comps=comps)[0]

    def test_approx_single_component(self):
        comps = np.array([[3.0, -1.0]])
        assert step_rule(comps.mean(axis=0), theta=0.0, iota=0.0, comps=comps)[0]

    def test_approx_opposing_components_fail(self):
        comps = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert not step_rule(comps.mean(axis=0), theta=1.0, iota=0.0, comps=comps)[0]

    def test_approx_empty_rejected(self):
        with pytest.raises(ValueError):
            approx_norm_terms(np.zeros((0, 3)), np.zeros(3))

    def test_exact_terms(self):
        h = np.diag([4.0, 1.0])
        lhs, rhs_norm = exact_norm_terms(np.array([1.2, 0.0]), np.array([1.0, 0.0]), h)
        np.testing.assert_allclose([lhs, rhs_norm], [0.01, 0.25])
        assert exact_norm_terms(np.array([3.0, 4.5]), np.array([3.0, 4.0])) == (0.25, 25.0)

    def test_approx_terms(self):
        comps = np.array([[1.0, 0.0], [-1.0, 2.0]])
        assert approx_norm_terms(comps, comps.mean(axis=0)) == (2.0, 1.0)

    @given(
        st.integers(1, 6).flatmap(lambda m: st.lists(st.floats(-10, 10), min_size=3 * m, max_size=3 * m)),
        st.floats(0.0, 2.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_tests_compare_their_terms(self, xs, theta, iota):
        # the step compares the terms with one right side, theta^2 ||.||^2 + iota
        comps = np.array(xs).reshape(-1, 3)
        g = comps.mean(axis=0)
        variance, g_norm_sq = approx_norm_terms(comps, g)
        rhs = theta**2 * g_norm_sq + iota
        assert step_rule(g, theta, iota, comps=comps) == (variance <= rhs, variance, rhs)
        lhs, rhs_norm = exact_norm_terms(comps[0], g)
        rhs = theta**2 * rhs_norm + iota
        assert step_rule(comps[0], theta, iota, full_grad=g) == (lhs <= rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# The paper's batch-size bounds, as references. The step loop grows the batch
# by the observed violation ratio instead, so no run reads these; the checks
# below hold the bounds to the norm condition they promise.
# ---------------------------------------------------------------------------


def required_size_stochastic(lambda_max_a, grad_norm_sq, grad_a_norm_sq, theta, iota, sigma1=0.0, sigma2=0.0):
    """Smallest i.i.d. batch size guaranteeing the expected norm condition.

    Given the variance bound ``E ||grad_i - grad||^2 <= sigma1^2 ||grad||^2 +
    sigma2^2``, evaluates ``lambda_max(A) (sigma1^2 ||grad||^2 + sigma2^2) /
    (theta^2 ||grad||_A^2 + iota)``, rounded up and clamped to >= 1.
    """
    denom = theta**2 * grad_a_norm_sq + iota
    if denom <= 0:
        raise ValueError("theta^2 * ||grad||_A^2 + iota must be positive")
    numer = lambda_max_a * (sigma1**2 * grad_norm_sq + sigma2**2)
    return max(1, math.ceil(numer / denom))


def required_size_deterministic(
    n_total, lambda_max_a, grad_norm_sq, grad_a_norm_sq, theta, iota, beta1=0.0, beta2=0.0
):
    """Batch size at which every subset of a finite sum meets the norm
    condition.

    If every component satisfies ``||grad_i||^2 <= beta1 ||grad||^2 +
    beta2``, every subset S of the N components has ``||g_S - grad||^2 <=
    4 (1 - |S|/N)^2 (beta1 ||grad||^2 + beta2)``. The returned size is the
    smallest ``|S|`` at which that worst case, times ``lambda_max(A)``,
    is at most ``theta^2 ||grad||_A^2 + iota``: ``N (1 - sqrt((theta^2
    ||grad||_A^2 + iota) / (4 lambda_max(A) (beta1 ||grad||^2 +
    beta2))))``, rounded up and clamped to ``[1, N]``.
    """
    denom = 4.0 * lambda_max_a * (beta1 * grad_norm_sq + beta2)
    if denom <= 0:
        raise ValueError("beta1 * ||grad||^2 + beta2 must be positive")
    ratio = (theta**2 * grad_a_norm_sq + iota) / denom
    bound = n_total * (1.0 - math.sqrt(ratio))
    return min(n_total, max(1, math.ceil(bound)))


def grad_noise_second_moment(prob, w):
    """Closed-form ``E ||grad_one_draw - grad_full||^2`` of the masked
    quadratic ``prob`` at ``w``.

    Per coordinate the mask residual ``y_i = (m_i - p) u_i - (m_i m'_i -
    p^2) v_i`` (with ``u = A w``, ``v = b``) has independent entries, which
    reduces the second moment to a sum over the diagonal of ``A^2``.
    """
    p = prob.keep_prob
    u = prob.a @ w
    v = prob.b
    ey2 = p * (1 - p) * u * u - 2 * p * p * (1 - p) * u * v + p * p * (1 - p * p) * v * v
    return float(4.0 * np.einsum("ij,ij->i", prob.a, prob.a) @ ey2)


class TestNoiseSecondMoment:
    def test_matches_monte_carlo(self):
        quad = quadratic_generate(d=40, keep_prob=0.5, seed=3)
        rng = rng_mod.stream(12, "gradient")
        w = rng.standard_normal(quad.dim)
        gf = quad.grad_full(w)
        comps = quad.component_grads(w, quad.draw_sample(rng, 100_000))
        mc = np.mean(np.sum((comps - gf) ** 2, axis=1))
        assert mc == pytest.approx(grad_noise_second_moment(quad, w), rel=0.02)


class TestRequiredSizes:
    def test_stochastic_pure_additive(self):
        assert required_size_stochastic(1.0, 5.0, 5.0, theta=0.0, iota=0.01, sigma1=0.0, sigma2=1.0) == 100

    def test_stochastic_exact_gradients(self):
        assert required_size_stochastic(1.0, 5.0, 5.0, theta=0.5, iota=0.0, sigma1=0.0, sigma2=0.0) == 1

    def test_stochastic_mixed(self):
        assert required_size_stochastic(1.0, 4.0, 4.0, theta=0.5, iota=0.0, sigma1=1.0, sigma2=2.0) == 8

    def test_stochastic_zero_denominator(self):
        with pytest.raises(ValueError):
            required_size_stochastic(1.0, 4.0, 4.0, theta=0.0, iota=0.0, sigma2=1.0)

    def test_deterministic_full_set_at_zero_tolerance(self):
        assert required_size_deterministic(100, 1.0, 4.0, 4.0, 0.0, 0.0, beta1=1.0, beta2=0.0) == 100

    def test_deterministic_arithmetic(self):
        assert required_size_deterministic(100, 1.0, 4.0, 4.0, 0.5, 0.0, beta1=1.0, beta2=0.0) == 75

    def test_deterministic_floor_at_one(self):
        # ratio under the root >= 1 drives the bound to <= 0
        assert required_size_deterministic(100, 1.0, 1.0, 1.0, 10.0, 100.0, beta1=1.0, beta2=0.0) == 1

    @given(
        theta=st.floats(0.05, 2.0),
        iota=st.floats(0.0, 1.0),
        bump=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_tolerances(self, theta, iota, bump):
        base = required_size_stochastic(1.0, 9.0, 9.0, theta, iota + 1e-6, sigma1=0.5, sigma2=1.5)
        looser_iota = required_size_stochastic(1.0, 9.0, 9.0, theta, iota + 1e-6 + bump, sigma1=0.5, sigma2=1.5)
        looser_theta = required_size_stochastic(1.0, 9.0, 9.0, theta + bump, iota + 1e-6, sigma1=0.5, sigma2=1.5)
        assert looser_iota <= base
        assert looser_theta <= base


class TestController:
    def test_theoretical_is_not_a_mode(self):
        with pytest.raises(ValueError, match="unknown controller mode"):
            GradSampleController(mode="theoretical", sizes=(8,), cap=64)

    def test_fixed_mode(self):
        ctrl = GradSampleController(mode="fixed", sizes=(32,), cap=1000)
        assert ctrl.size(0.0, 0) == 32
        assert ctrl.size(57.0, 32) == 32

    def test_geometric_table(self):
        ctrl = GradSampleController(
            mode="geometric_epochs",
            sizes=(32, 128, 512, 2048, 5500),
            epochs_per_block=20,
            cap=5500,
        )
        size = 0
        for epoch, expected in ((0.0, 32), (19.9, 32), (21.0, 128), (80.0, 5500), (500.0, 5500)):
            size = ctrl.size(epoch, size)
            assert size == expected
        # the table is read fresh each iteration, but a batch never shrinks
        assert ctrl.size(0.0, 128) == 128

    def test_pass_leaves_size(self):
        ctrl = GradSampleController(mode="approx_norm_test", sizes=(8,), cap=100)
        assert ctrl.record_test(True, lhs=99.0, rhs=0.25, current=8) == 8

    def test_fail_at_threshold_unchanged(self):
        ctrl = GradSampleController(mode="approx_norm_test", sizes=(8,), cap=100)
        # variance exactly equals rhs: ratio 1
        assert ctrl.record_test(False, lhs=0.25, rhs=0.25, current=8) == 8

    def test_fail_grows_by_ratio(self):
        ctrl = GradSampleController(mode="approx_norm_test", sizes=(8,), cap=100)
        assert ctrl.record_test(False, lhs=1.0, rhs=0.25, current=8) == 32

    def test_cap_respected(self):
        ctrl = GradSampleController(mode="approx_norm_test", sizes=(8,), cap=20)
        assert ctrl.record_test(False, lhs=100.0, rhs=0.25, current=8) == 20

    @given(
        outcomes=st.lists(
            st.tuples(st.booleans(), st.floats(0.0, 10.0), st.floats(0.01, 10.0)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_nondecreasing(self, outcomes):
        ctrl = GradSampleController(mode="exact_norm_test", sizes=(4,), cap=4096)
        last = ctrl.size(0.0, 0)
        for passed, variance, gsq in outcomes:
            size = ctrl.record_test(passed, variance, 0.5**2 * gsq + 1e-3, last)
            assert last <= size <= 4096
            last = size

    def test_only_an_adaptive_batch_below_the_cap_can_grow(self):
        ctrl = GradSampleController(mode="exact_norm_test", sizes=(8,), cap=20)
        assert ctrl.can_grow(8) and ctrl.can_grow(19) and not ctrl.can_grow(20)
        assert not GradSampleController(mode="fixed", sizes=(8,), cap=20).can_grow(8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GradSampleController(mode="bogus", sizes=(8,), cap=64)

    def test_a_violation_ratio_that_overflows_grows_to_the_cap(self):
        # 0.25 / 1.07e-320 is inf, which math.ceil raised an OverflowError on
        ctrl = GradSampleController(mode="approx_norm_test", sizes=(1,), cap=64)
        assert ctrl.record_test(False, 0.25, 1.07e-320, 1) == 64

    def test_geometric_requires_sizes(self):
        with pytest.raises(ValueError):
            GradSampleController(mode="geometric_epochs", sizes=(), cap=64)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mode": "fixed", "sizes": (0,)}, r"^'sizes' must be >= 1, got 0$"),
            ({"mode": "geometric_epochs", "sizes": (0, 8)}, r"^'sizes' must be >= 1, got 0$"),
            # a later entry below 1 was accepted, and never applied
            ({"mode": "geometric_epochs", "sizes": (8, 0)}, r"^'sizes' must be >= 1, got 0$"),
        ],
        ids=["fixed_size_0", "first_size_0", "later_size_0"],
    )
    def test_batch_sizes_at_least_one(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GradSampleController(**kwargs, cap=64)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"mode": "fixed", "sizes": (8,), "cap": 4}, r"^'sizes' must be <= the cap 4, got 8$"),
            ({"mode": "geometric_epochs", "sizes": (2, 8), "cap": 4}, r"^'sizes' must be <= the cap 4, got 8$"),
        ],
        ids=["fixed_size", "sizes"],
    )
    def test_no_batch_size_above_the_cap(self, kwargs, match):
        # size() clamped these each step; a config's reader clamps them once
        with pytest.raises(ValueError, match=match):
            GradSampleController(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"sizes": (4,)}, {"cap": 64}], ids=["no_cap", "no_sizes"])
    def test_sizes_and_cap_have_no_default(self, kwargs):
        # a hand-built exact test left at its default cap of 2**16 grew its
        # batch on 50 components to 14581 and raised in draw_sample
        with pytest.raises(TypeError, match="missing 1 required positional argument"):
            GradSampleController(mode="exact_norm_test", **kwargs)

    @pytest.mark.parametrize("mode", ["fixed", "exact_norm_test", "approx_norm_test"])
    def test_a_mode_of_no_table_holds_one_size(self, mode):
        with pytest.raises(ValueError, match=f"^mode '{mode}' takes one batch size in 'sizes', got 2$"):
            GradSampleController(mode=mode, sizes=(4, 8), cap=64)

    @pytest.mark.parametrize(
        "mode, a_mode, match",
        [
            ("exact_norm_test", "inverse_hesian", r"^a_mode must be 'identity' or 'inverse_hessian', got 'inverse_hesian'$"),
            ("approx_norm_test", "inverse_hessian", r"^a_mode 'inverse_hessian' .* needs mode 'exact_norm_test', not 'approx_norm_test'$"),
            ("fixed", "inverse_hessian", r"^a_mode 'inverse_hessian' .* needs mode 'exact_norm_test', not 'fixed'$"),
        ],
        ids=["misspelt", "approx_test", "fixed"],
    )
    def test_a_mode_the_mode_cannot_apply_is_refused(self, mode, a_mode, match):
        with pytest.raises(ValueError, match=match):
            GradSampleController(mode, (4,), 64, a_mode=a_mode)

    def test_cap_at_least_one(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            GradSampleController(mode="fixed", sizes=(4,), cap=0)

    @pytest.mark.parametrize("epochs_per_block", [0, -1])
    def test_epochs_per_block_at_least_one(self, epochs_per_block):
        # 0 divided by zero at the first size(); -1 read the table's last size from epoch 1
        with pytest.raises(ValueError, match="epochs_per_block must be >= 1"):
            GradSampleController(mode="geometric_epochs", sizes=(8, 16, 32), cap=64, epochs_per_block=epochs_per_block)


class TestNormConditionHolds:
    def test_sized_batches_meet_expected_condition(self):
        # on the masked quadratic, batches sized by the stochastic bound keep
        # the average squared error below the prescribed threshold
        prob = quadratic_generate(d=30, keep_prob=0.5, seed=8)
        rng = rng_mod.stream(50, "gradient")
        w = rng.standard_normal(30)
        gf = prob.grad_full(w)
        gsq = float(gf @ gf)
        sigma2 = grad_noise_second_moment(prob, w)
        theta, iota = 0.5, 0.0
        m = required_size_stochastic(1.0, gsq, gsq, theta, iota, sigma2=np.sqrt(sigma2))
        trials = 2000
        comps = prob.component_grads(w, prob.draw_sample(rng, m * trials))
        batch_means = comps.reshape(trials, m, -1).mean(axis=1)
        mean_err = np.mean(np.sum((batch_means - gf) ** 2, axis=1))
        assert mean_err <= 1.1 * (theta**2 * gsq + iota)


class TestDeterministicSizeWorstCase:
    """:func:`required_size_deterministic` on the synthetic sum, with exact constants.

    With ``beta1 = 0`` and ``beta2 = max_i ||grad_i||^2`` every component
    meets ``||grad_i||^2 <= beta1 ||grad||^2 + beta2``, so every subset S
    has ``||g_S - grad||^2 <= 4 (1 - |S|/N)^2 beta2``. The returned size is
    the smallest that makes this worst case meet the norm condition, so
    every subset of that size must meet it, not only the average one.
    """

    N, D = 64, 5

    @staticmethod
    def _a_norm_sq(rows, inverse_of):
        if inverse_of is None:
            return np.sum(rows * rows, axis=1)
        return np.sum(rows * np.linalg.solve(inverse_of, rows.T).T, axis=1)

    @staticmethod
    def _greedy_worst(comps, gf, subset, inverse_of):
        # ascend ||g_S - grad||_A^2: keep the |S| components furthest along
        # the A-weighted deviation until the subset stops changing
        m = subset.size
        for _ in range(10):
            dev = comps[subset].mean(axis=0) - gf
            u = dev if inverse_of is None else np.linalg.solve(inverse_of, dev)
            nxt = np.sort(np.argsort(comps @ u)[-m:])
            if np.array_equal(nxt, subset):
                break
            subset = nxt
        return subset

    def test_every_checked_subset_meets_condition(self):
        n = self.N
        prob = SyntheticSumProblem.generate(n, self.D, seed=3, curvature=2.0)
        rng = rng_mod.stream(60, "gradient")
        sizes = set()
        for _ in range(20):
            w = rng.standard_normal(self.D)
            comps = prob.component_grads(w, np.arange(n))
            gf = prob.grad_full(w)
            beta2 = float(np.max(np.sum(comps * comps, axis=1)))
            h = prob.hessian_full(w)
            for inverse_of, lambda_max in ((None, 1.0), (h, 1.0 / np.linalg.eigvalsh(h)[0])):
                gsq = float(gf @ gf)
                _, ga = exact_norm_terms(gf, gf, inverse_of)

                def worst_case(size):
                    return 4 * lambda_max * (1 - size / n) ** 2 * beta2

                for theta in (0.3, 0.6, 0.9, 1.5):
                    for iota in (0.0, 0.25 * ga):
                        m = required_size_deterministic(n, lambda_max, gsq, ga, theta, iota, beta2=beta2)
                        sizes.add(m)
                        threshold = theta**2 * ga + iota
                        # m is the smallest size whose worst case meets the condition
                        assert worst_case(m) <= threshold < worst_case(m - 1)
                        subsets = np.sort(
                            np.stack([rng.choice(n, m, replace=False) for _ in range(50)]), axis=1
                        )
                        lhs = self._a_norm_sq(comps[subsets].mean(axis=1) - gf, inverse_of)
                        assert np.all(lhs <= worst_case(m))
                        assert np.all(lhs <= threshold)
                        worst = self._greedy_worst(comps, gf, subsets[np.argmax(lhs)], inverse_of)
                        g_worst = comps[worst].mean(axis=0)
                        worst_lhs = self._a_norm_sq((g_worst - gf)[None], inverse_of)[0]
                        assert lhs.max() <= worst_lhs <= worst_case(m)
                        assert step_rule(g_worst, theta, iota, full_grad=gf, inverse_of=inverse_of)[0]
        # the bound is exercised away from its clamps at 1 and N
        assert min(sizes) > 1 and max(sizes) < n
