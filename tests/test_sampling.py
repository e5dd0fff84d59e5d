import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg.problems import ProblemConstants, SyntheticSumProblem
from hessavg.sampling import (
    CyclicSampler,
    GradSampleController,
    approx_norm_terms,
    approx_norm_test,
    exact_norm_terms,
    exact_norm_test,
    IidSampler,
    required_size_deterministic,
    required_size_stochastic,
)
from hessavg import rng as rng_mod


class TestCyclicSampler:
    def test_identity_partition(self):
        sampler = CyclicSampler(6, 2, seed=None)
        blocks = [sampler.next_block().tolist() for _ in range(6)]
        assert blocks == [[0, 1], [2, 3], [4, 5], [0, 1], [2, 3], [4, 5]]

    def test_single_block(self):
        sampler = CyclicSampler(4, 4, seed=None)
        for _ in range(3):
            assert sampler.next_block().tolist() == [0, 1, 2, 3]

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            CyclicSampler(6, 4)

    def test_seeded_partition_fixed_across_cycles(self):
        sampler = CyclicSampler(12, 3, seed=9)
        first = [sampler.next_block().tolist() for _ in range(4)]
        second = [sampler.next_block().tolist() for _ in range(4)]
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
                acc += prob.hessian_sub(w, sampler.next_block())
                count += 1
            np.testing.assert_allclose(acc / count, full, atol=1e-13)


class TestIidSampler:
    def test_draws_through_oracle(self):
        prob = SyntheticSumProblem.generate(10, 4, seed=0)
        sampler = IidSampler(3)
        rng = rng_mod.stream(0, "hessian")
        seen = set()
        for _ in range(20):
            block = sampler.next_block(prob, rng)
            assert len(block) == 3
            assert len(set(block.tolist())) == 3
            seen.add(tuple(sorted(block.tolist())))
        assert len(seen) > 1


class TestNormTests:
    def test_exact_gradient_always_passes(self):
        g = np.array([1.0, 2.0])
        assert exact_norm_test(g, g, theta=0.0, iota=0.0)

    def test_zero_tolerance_fails_on_mismatch(self):
        assert not exact_norm_test(np.array([1.0, 0.0]), np.array([1.0, 0.1]), 0.0, 0.0)

    def test_boundary_case(self):
        # ||delta||^2 = 0.25 vs theta^2 ||grad||^2 = 0.01 * 25 = 0.25
        g = np.array([3.0, 4.5])
        full = np.array([3.0, 4.0])
        assert exact_norm_test(g, full, theta=0.1, iota=0.0)
        assert not exact_norm_test(g, full, theta=0.0999, iota=0.0)

    def test_weighted_mode(self):
        h = np.diag([4.0, 1.0])
        g = np.array([1.2, 0.0])
        full = np.array([1.0, 0.0])
        # ||delta||_{H^{-1}}^2 = 0.04/4 = 0.01; rhs = theta^2 * 1/4
        assert exact_norm_test(g, full, theta=0.2, iota=0.0, inverse_of=h)
        assert not exact_norm_test(g, full, theta=0.19, iota=0.0, inverse_of=h)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_norm_test(np.ones(2), np.ones(3), 0.1, 0.0)

    def test_approx_equal_components_pass(self):
        comps = np.tile([1.0, 2.0], (5, 1))
        assert approx_norm_test(comps, comps.mean(axis=0), theta=0.0, iota=0.0)

    def test_approx_single_component(self):
        comps = np.array([[3.0, -1.0]])
        assert approx_norm_test(comps, comps.mean(axis=0), theta=0.0, iota=0.0)

    def test_approx_opposing_components_fail(self):
        comps = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert not approx_norm_test(comps, comps.mean(axis=0), theta=1.0, iota=0.0)

    def test_approx_empty_rejected(self):
        with pytest.raises(ValueError):
            approx_norm_test(np.zeros((0, 3)), np.zeros(3), 0.5, 0.0)

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
        comps = np.array(xs).reshape(-1, 3)
        g = comps.mean(axis=0)
        variance, g_norm_sq = approx_norm_terms(comps, g)
        assert approx_norm_test(comps, g, theta, iota) == (variance <= theta**2 * g_norm_sq + iota)
        lhs, rhs_norm = exact_norm_terms(comps[0], g)
        assert exact_norm_test(comps[0], g, theta, iota) == (lhs <= theta**2 * rhs_norm + iota)


class TestRequiredSizes:
    def test_stochastic_pure_additive(self):
        constants = ProblemConstants(sigma1_g=0.0, sigma2_g=1.0)
        assert required_size_stochastic(constants, 1.0, 5.0, 5.0, theta=0.0, iota=0.01) == 100

    def test_stochastic_exact_gradients(self):
        constants = ProblemConstants(sigma1_g=0.0, sigma2_g=0.0)
        assert required_size_stochastic(constants, 1.0, 5.0, 5.0, theta=0.5, iota=0.0) == 1

    def test_stochastic_mixed(self):
        constants = ProblemConstants(sigma1_g=1.0, sigma2_g=2.0)
        assert required_size_stochastic(constants, 1.0, 4.0, 4.0, theta=0.5, iota=0.0) == 8

    def test_stochastic_zero_denominator(self):
        constants = ProblemConstants(sigma2_g=1.0)
        with pytest.raises(ValueError):
            required_size_stochastic(constants, 1.0, 4.0, 4.0, theta=0.0, iota=0.0)

    def test_deterministic_full_set_at_zero_tolerance(self):
        constants = ProblemConstants(beta1_g=1.0, beta2_g=0.0)
        assert required_size_deterministic(100, constants, 1.0, 4.0, 4.0, 0.0, 0.0) == 100

    def test_deterministic_arithmetic(self):
        constants = ProblemConstants(beta1_g=1.0, beta2_g=0.0)
        assert required_size_deterministic(100, constants, 1.0, 4.0, 4.0, 0.5, 0.0) == 75

    def test_deterministic_floor_at_one(self):
        constants = ProblemConstants(beta1_g=1.0, beta2_g=0.0)
        # ratio under the root >= 1 drives the bound to <= 0
        assert required_size_deterministic(100, constants, 1.0, 1.0, 1.0, 10.0, 100.0) == 1

    @given(
        theta=st.floats(0.05, 2.0),
        iota=st.floats(0.0, 1.0),
        bump=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_tolerances(self, theta, iota, bump):
        constants = ProblemConstants(sigma1_g=0.5, sigma2_g=1.5)
        base = required_size_stochastic(constants, 1.0, 9.0, 9.0, theta, iota + 1e-6)
        looser_iota = required_size_stochastic(constants, 1.0, 9.0, 9.0, theta, iota + 1e-6 + bump)
        looser_theta = required_size_stochastic(constants, 1.0, 9.0, 9.0, theta + bump, iota + 1e-6)
        assert looser_iota <= base
        assert looser_theta <= base


class TestController:
    def test_theoretical_is_not_a_mode(self):
        with pytest.raises(ValueError, match="unknown controller mode"):
            GradSampleController(mode="theoretical")

    def test_fixed_mode(self):
        ctrl = GradSampleController(mode="fixed", initial_size=32, cap=1000)
        assert ctrl.size(epoch=0.0) == 32
        assert ctrl.size(epoch=57.0) == 32

    def test_geometric_table(self):
        ctrl = GradSampleController(
            mode="geometric_epochs",
            sizes=(32, 128, 512, 2048, 5500),
            epochs_per_block=20,
            initial_size=32,
            cap=5500,
        )
        assert ctrl.size(epoch=0.0) == 32
        assert ctrl.size(epoch=19.9) == 32
        assert ctrl.size(epoch=21.0) == 128
        assert ctrl.size(epoch=80.0) == 5500
        assert ctrl.size(epoch=500.0) == 5500

    def test_pass_leaves_size(self):
        ctrl = GradSampleController(mode="approx_norm_test", initial_size=8, cap=100)
        ctrl.record_test(True, observed_variance=99.0, g_norm_sq=1.0, theta=0.5, iota=0.0)
        assert ctrl.current_size == 8

    def test_fail_at_threshold_unchanged(self):
        ctrl = GradSampleController(mode="approx_norm_test", initial_size=8, cap=100)
        # variance exactly equals rhs: ratio 1
        ctrl.record_test(False, observed_variance=0.25, g_norm_sq=1.0, theta=0.5, iota=0.0)
        assert ctrl.current_size == 8

    def test_fail_grows_by_ratio(self):
        ctrl = GradSampleController(mode="approx_norm_test", initial_size=8, cap=100)
        ctrl.record_test(False, observed_variance=1.0, g_norm_sq=1.0, theta=0.5, iota=0.0)
        assert ctrl.current_size == 32

    def test_cap_respected(self):
        ctrl = GradSampleController(mode="approx_norm_test", initial_size=8, cap=20)
        ctrl.record_test(False, observed_variance=100.0, g_norm_sq=1.0, theta=0.5, iota=0.0)
        assert ctrl.current_size == 20

    @given(
        outcomes=st.lists(
            st.tuples(st.booleans(), st.floats(0.0, 10.0), st.floats(0.01, 10.0)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_sizes_nondecreasing(self, outcomes):
        ctrl = GradSampleController(mode="exact_norm_test", initial_size=4, cap=4096)
        last = ctrl.current_size
        for passed, variance, gsq in outcomes:
            ctrl.record_test(passed, variance, gsq, theta=0.5, iota=1e-3)
            assert ctrl.current_size >= last
            assert ctrl.current_size <= 4096
            last = ctrl.current_size

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GradSampleController(mode="bogus")

    def test_geometric_requires_sizes(self):
        with pytest.raises(ValueError):
            GradSampleController(mode="geometric_epochs")


class TestNormConditionHolds:
    def test_sized_batches_meet_expected_condition(self):
        # on the masked quadratic, batches sized by the stochastic bound keep
        # the average squared error below the prescribed threshold
        from hessavg.problems import quadratic_generate

        prob = quadratic_generate(d=30, keep_prob=0.5, seed=8)
        rng = rng_mod.stream(50, "gradient")
        w = rng.standard_normal(30)
        gf = prob.grad_full(w)
        gsq = float(gf @ gf)
        sigma2 = prob.grad_noise_second_moment(w)
        constants = ProblemConstants(sigma1_g=0.0, sigma2_g=np.sqrt(sigma2))
        theta, iota = 0.5, 0.0
        m = required_size_stochastic(constants, 1.0, gsq, gsq, theta, iota)
        trials = 2000
        comps = prob.component_grads(w, prob.draw_sample(rng, m * trials))
        batch_means = comps.reshape(trials, m, -1).mean(axis=1)
        mean_err = np.mean(np.sum((batch_means - gf) ** 2, axis=1))
        assert mean_err <= 1.1 * (theta**2 * gsq + iota)
