from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from hessavg.averaging import DiagAverageState, UpdateFrequencyPolicy
from hessavg.harness import ExperimentConfig, RateReport, build_context, estimate_rates, run_experiment
from hessavg.linalg import matrix_abs, pd_modify, spd_solve
from hessavg.optimizers import (
    AlphaConstant,
    AlphaStepDecay,
    AlphaTwoPhase,
    IotaGeometric,
    IotaSuperDet,
    IotaSuperStoch,
    MethodSpec,
    RunContext,
    ScheduleSet,
    ThetaConstant,
    ThetaLocalDet,
    ThetaLocalStoch,
    _direction,
    _update_hessian,
    eec,
    init_state,
    run,
    schedule_eval,
    step,
)
from hessavg.problems import (
    LogisticProblem,
    QuadraticProblem,
    SyntheticSumProblem,
    make_synthetic_logistic,
    quadratic_generate,
)
from hessavg.sampling import CyclicSampler, GradSampleController, IidSampler
from hessavg import problems
from hessavg import rng as rng_mod

EXACT = ScheduleSet(AlphaConstant(1.0), ThetaConstant(0.0), IotaGeometric(0.0, 0.0))


def make_ctx(oracle, method, seed=0, alpha=1.0, grad_size=None, hess="iid", hess_size=None, **kw):
    n = oracle.n_components
    grad_size = grad_size or (n if n is not None else 8)
    hess_size = hess_size or grad_size
    cap = n if n is not None else 2**16
    fixed = GradSampleController(mode="fixed", sizes=(grad_size,), cap=max(cap, grad_size))
    if hess == "cyclic":
        sampler = CyclicSampler(n, hess_size, seed=None)
    else:
        sampler = IidSampler(hess_size)
    schedules = kw.pop("schedules", ScheduleSet(AlphaConstant(alpha), ThetaConstant(0.0), IotaGeometric(0.0, 0.0)))
    return RunContext(
        oracle=oracle,
        method=method,
        controller=kw.pop("controller", fixed),
        hess_sampler=sampler,
        schedules=schedules,
        policy=kw.pop("policy", UpdateFrequencyPolicy()),
        rngs=rng_mod.streams(seed),
        trace_interval=kw.pop("trace_interval", 10),
        **kw,
    )


class TestSchedules:
    def test_geometric_iota(self):
        sched = IotaGeometric(1.0, 0.5)
        assert sched.at(3) == pytest.approx(0.125)

    def test_super_det_recurrence(self):
        sched = IotaSuperDet(1.0, 0.5, k_switch=0)
        assert sched.at(0) == 1.0
        assert sched.at(1) == pytest.approx(0.5)  # 1 * 0.5 / 1^4
        assert sched.at(2) == pytest.approx(0.015625)  # 0.5 * 0.5 / 2^4

    def test_super_stoch_recurrence(self):
        sched = IotaSuperStoch(1.0, 0.5, k_switch=0)
        assert sched.at(1) == pytest.approx(0.5)
        assert sched.at(2) == pytest.approx(0.0625)  # 0.5 * 0.5 / 2^2

    def test_super_underflows_to_zero(self):
        sched = IotaSuperDet(1.0, 0.9)
        assert sched.at(500) == 0.0

    def test_super_without_decay_is_zero_past_its_switch(self):
        sched = IotaSuperDet(1.0, 0.0, k_switch=2)
        assert [sched.at(k) for k in range(5)] == [1.0, 1.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "make, match",
        [(lambda: IotaGeometric(1.0, 1.0), r"^decay factor a must lie in \[0, 1\)$"),
         (lambda: IotaSuperDet(1.0, 1.5), r"^decay factor a_l must lie in \[0, 1\)$")],
        ids=["geometric_a_1", "super_det_a_l_above_1"],
    )
    def test_a_decay_factor_of_one_or_more_is_refused(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_two_phase_alpha(self):
        sched = AlphaTwoPhase(0.01, k_switch=100)
        assert sched.at(99) == 0.01
        assert sched.at(100) == 1.0

    def test_step_decay(self):
        sched = AlphaStepDecay(1.0, 0.25, milestones=(10, 20))
        assert sched.at(9) == 1.0
        assert sched.at(10) == 0.25
        assert sched.at(25) == pytest.approx(0.0625)

    def test_theta_local_variants(self):
        det = ThetaLocalDet(0.4, k_switch=5)
        stoch = ThetaLocalStoch(0.4, k_switch=5)
        assert det.at(4) == 0.4
        assert det.at(9) == pytest.approx(0.04)
        assert stoch.at(9) == pytest.approx(0.4 / np.sqrt(10))

    def test_schedule_eval_tuple(self):
        schedules = ScheduleSet(AlphaTwoPhase(0.01, 100), ThetaConstant(0.5), IotaGeometric(1.0, 0.5))
        assert schedule_eval(schedules, 100) == (1.0, 0.5, pytest.approx(1.0 / 2**100))

    def test_monotone_after_switch(self):
        for sched in (IotaGeometric(1.0, 0.8), IotaSuperDet(1.0, 0.8, 3), IotaSuperStoch(1.0, 0.8, 3)):
            vals = [sched.at(k) for k in range(3, 60)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))
        for theta in (ThetaLocalDet(0.5, 3), ThetaLocalStoch(0.5, 3)):
            vals = [theta.at(k) for k in range(3, 60)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            schedule_eval(EXACT, -1)


class TestEec:
    @pytest.mark.parametrize(
        "epochs,rank,hf,expected",
        [
            (1000, 1, 10, 1202.0),
            (1000, 5, 10, 2010.0),
            (500, 1, 10, 602.0),
            (500, 5, 10, 1010.0),
            (500, 0, 1, 500.0),
        ],
    )
    def test_table_values(self, epochs, rank, hf, expected):
        assert eec(epochs, rank, hf) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            eec(10, -1, 1)
        with pytest.raises(ValueError):
            eec(10, 1, 0)


class TestMethodSpec:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MethodSpec(name="bogus")

    def test_ranges_validated(self):
        with pytest.raises(ValueError):
            MethodSpec(name="dan", rank=0)
        with pytest.raises(ValueError):
            MethodSpec(name="adam", beta1=1.0)
        with pytest.raises(ValueError):
            MethodSpec(name="fan", variant="weird")
        # decay 0 is subnewton's internal average, not a weighting option
        with pytest.raises(ValueError):
            MethodSpec(name="fan", decay=0.0)

    @pytest.mark.parametrize("key", ["mu_tilde", "rank", "eps", "adam_eps", "beta1", "beta2", "decay"])
    def test_nan_fails_the_range_checks(self, key):
        # mu_tilde NaN passed and failed mid-run, in pd_modify
        with pytest.raises(ValueError):
            MethodSpec(name="fan", **{key: float("nan")})

    @pytest.mark.parametrize("name", ["fan", "dan", "dan2"])
    def test_decay_sets_the_average_and_none_is_uniform(self, name):
        # decay acted only with weights "decaying"; weights is gone
        prob = SyntheticSumProblem(problems._pack(np.eye(2)[None]), np.zeros((1, 2)))
        for decay in (None, 0.5):
            assert init_state(MethodSpec(name=name, decay=decay), prob, np.zeros(2)).avg._acc.decay == decay


class TestStepBehavior:
    def test_sgd_contracts_quadratic(self):
        # f = 0.5 ||w||^2 via the synthetic testbed with identity Hessians
        h = np.repeat(np.eye(3)[None] / 2, 4, axis=0) * 2  # H_i = I
        prob = SyntheticSumProblem(problems._pack(h), np.zeros((4, 3)))
        ctx = make_ctx(prob, MethodSpec(name="sgd"), alpha=0.1)
        state, records = run(ctx, np.array([1.0, -2.0, 4.0]), epochs=1)
        np.testing.assert_allclose(state.w, 0.9 * np.array([1.0, -2.0, 4.0]))

    def test_fan_newton_step_on_unmasked_quadratic(self):
        prob = quadratic_generate(d=12, keep_prob=1.0, seed=0)
        w_star, _ = prob.optimum()
        ctx = make_ctx(prob, MethodSpec(name="fan", mu_tilde=1e-8), alpha=1.0, grad_size=4)
        rng = rng_mod.stream(0, "init")
        state, records = run(ctx, rng.standard_normal(12), epochs=1 / ctx.iters_per_epoch)
        assert state.k == 1
        assert np.linalg.norm(state.w - w_star) <= 1e-8

    def test_dan_exact_diagonal_one_step(self):
        a = np.diag([1.0, 2.0, 4.0])
        prob = QuadraticProblem(a, np.zeros(3), keep_prob=1.0)
        ctx = make_ctx(prob, MethodSpec(name="dan", eps=0.0, rank=1), alpha=1.0, grad_size=2)
        state, _ = run(ctx, np.array([3.0, -1.0, 0.5]), epochs=1 / ctx.iters_per_epoch)
        np.testing.assert_allclose(state.w, np.zeros(3), atol=1e-12)

    def test_subnewton_full_sample_one_step(self):
        prob = SyntheticSumProblem.generate(8, 6, seed=3)
        w_star, _ = prob.optimum()
        ctx = make_ctx(prob, MethodSpec(name="subnewton", mu_tilde=1e-10), alpha=1.0, hess_size=8)
        rng = rng_mod.stream(1, "init")
        state, _ = run(ctx, w_star + rng.standard_normal(6), epochs=1)
        assert np.linalg.norm(state.w - w_star) <= 1e-8

    def test_dan_equals_fan_on_diagonal_problem(self):
        # unmasked diagonal quadratic: the Hutchinson estimate is exact and
        # both methods apply the same diagonal inverse
        a = np.diag([0.8, 1.5, 2.5, 4.0])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        w0 = np.array([2.0, 1.0, -1.0, 0.7])
        traces = {}
        for name in ("dan", "fan"):
            prob = QuadraticProblem(a, b, keep_prob=1.0)
            method = MethodSpec(name=name, eps=0.0, mu_tilde=1e-12, rank=1)
            ctx = make_ctx(prob, method, seed=5, alpha=0.7, grad_size=3)
            state, records = run(ctx, w0, epochs=0.2)
            traces[name] = state.w
        assert np.linalg.norm(traces["dan"] - traces["fan"]) <= 1e-8

    def test_adam_bias_correction_constant_gradient(self):
        # linear objective: gradient constant, so m_hat must equal it; a
        # step of 1e-3 moves it by about 1e-14 (a step of 0 is refused)
        h = np.zeros((2, 3, 3))
        h[:] = np.eye(3) * 1e-12
        b = np.tile([1.0, 2.0, -0.5], (2, 1))
        prob = SyntheticSumProblem(problems._pack(h), b)
        ctx = make_ctx(prob, MethodSpec(name="adam"), alpha=1e-3)
        state, _ = run(ctx, np.zeros(3), epochs=6)
        g = -b[0]
        assert state.m.count == state.k
        np.testing.assert_allclose(state.m.value(), g, rtol=1e-10)

    def test_adam_second_moment_lives_in_the_average(self):
        # linear objective as above: the bias-corrected EMA of g^2 is g^2
        h = np.zeros((2, 3, 3))
        h[:] = np.eye(3) * 1e-12
        b = np.tile([1.0, 2.0, -0.5], (2, 1))
        prob = SyntheticSumProblem(problems._pack(h), b)
        ctx = make_ctx(prob, MethodSpec(name="adam"), alpha=1e-3)
        state, _ = run(ctx, np.zeros(3), epochs=6)
        assert isinstance(state.avg, DiagAverageState) and state.avg._acc.count == state.k
        np.testing.assert_allclose(state.avg.preconditioner(), np.abs(b[0]), rtol=1e-10)

    def test_subnewton_honours_variant(self):
        # indefinite components, so |H| + mu I and the spectral
        # modification of H give different directions
        rng = rng_mod.stream(12, "init")
        a = rng.standard_normal((8, 5, 5))
        prob = SyntheticSumProblem(problems._pack(a + a.transpose(0, 2, 1)), rng.standard_normal((8, 5)))
        w = rng.standard_normal(5)
        g = prob.grad_full(w)
        mu = 1e-2
        directions = {}
        for variant in ("plain", "abs"):
            method = MethodSpec(name="subnewton", variant=variant, mu_tilde=mu)
            ctx = make_ctx(prob, method, seed=4, hess_size=3)
            state = init_state(method, prob, w)
            _update_hessian(ctx, state)
            # the same stream in a twin context redraws the Hessian sample
            twin = make_ctx(prob, method, seed=4, hess_size=3)
            hess = prob.hessian_sub(w, twin.hess_sampler.next_block(0, prob, twin.rngs.get("hessian")))
            if variant == "abs":
                expected = spd_solve(matrix_abs(hess) + mu * np.eye(5), g)
            else:
                expected = spd_solve(pd_modify(hess, mu)[0], g)
            directions[variant] = _direction(ctx, state, g)
            np.testing.assert_array_equal(directions[variant], expected)
        assert not np.allclose(directions["plain"], directions["abs"])

    def test_descent_inequality_exact_gradients(self):
        # along FAN with alpha <= mu_tilde / L the exact-gradient descent
        # bound holds at every iteration
        prob = SyntheticSumProblem.generate(16, 10, seed=4)
        w_star, _ = prob.optimum()
        lam_max = max(np.linalg.eigvalsh(h)[-1] for h in problems._unpack(prob.h, prob.dim))
        mu_tilde = 0.05
        alpha = mu_tilde / lam_max
        method = MethodSpec(name="fan", mu_tilde=mu_tilde)
        ctx = make_ctx(prob, method, alpha=alpha, hess="cyclic", hess_size=4)
        from hessavg.optimizers import init_state, step

        state = init_state(method, prob, w_star + rng_mod.stream(2, "init").standard_normal(10))
        for _ in range(60):
            w_before = state.w.copy()
            f_before = prob.loss_full(w_before)
            state, _ = step(ctx, state)
            g = prob.grad_full(w_before)
            p = state.avg.precondition(g)
            assert prob.loss_full(state.w) <= f_before - 0.5 * alpha * (g @ p) + 1e-8

    def test_divergence_guard(self):
        # spectral top ~ 2 * (0.1 * 60)^3 = 432, so unit-step gradient
        # descent blows up immediately
        prob = quadratic_generate(d=60, keep_prob=0.5, seed=2)
        ctx = make_ctx(prob, MethodSpec(name="sgd"), seed=3, alpha=1.0, grad_size=2)
        state, records = run(ctx, rng_mod.stream(3, "init").standard_normal(60), epochs=5)
        assert state.diverged
        assert records[-1].k < 5 * ctx.iters_per_epoch

    @pytest.mark.parametrize(
        "alpha, cause, steps",
        [
            (1.0, "batch loss above threshold", 3),
            # the first step lands near 1e200, where the loss overflows
            (1e200, "non-finite batch loss", 2),
            (np.inf, "non-finite iterate", 1),
        ],
        ids=["threshold", "loss", "iterate"],
    )
    def test_divergence_names_its_cause(self, alpha, cause, steps):
        prob = quadratic_generate(d=60, keep_prob=0.5, seed=2)
        ctx = make_ctx(prob, MethodSpec(name="sgd"), seed=3, alpha=alpha, grad_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            state, records = run(ctx, rng_mod.stream(3, "init").standard_normal(60), epochs=5)
        assert state.diverged == cause
        assert state.k == steps and len(records) == steps + 1
        # the step that diverged does not move the iterate
        assert np.all(np.isfinite(state.w))

    def test_infrequent_updates_counted(self):
        prob = SyntheticSumProblem.generate(8, 5, seed=6)
        method = MethodSpec(name="dan", rank=1)
        policy = UpdateFrequencyPolicy(warmup=4, hf=3)
        ctx = make_ctx(prob, method, alpha=0.05, grad_size=4, hess_size=4, policy=policy)
        state, _ = run(ctx, np.zeros(5), epochs=8)
        # N=8 with |X|=4 gives 2 iterations per epoch: 16 iterations total;
        # updates at 0-3 (warmup) then 4, 7, 10, 13
        assert state.k == 16
        assert state.hvp_probes == 8

    def test_a_missing_stream_is_a_key_error(self):
        # a full batch and the cyclic sampler draw nothing, so a missing
        # stream read as None went unnoticed on this run
        prob = SyntheticSumProblem.generate(16, 5, seed=7)
        ctx = make_ctx(prob, MethodSpec(name="fan"), grad_size=16, hess="cyclic", hess_size=4)
        ctx = replace(ctx, rngs={})
        with pytest.raises(KeyError, match="gradient"):
            run(ctx, np.zeros(5), epochs=3)

    def test_zero_epochs_single_record(self):
        prob = SyntheticSumProblem.generate(8, 5, seed=7)
        ctx = make_ctx(prob, MethodSpec(name="sgd"), alpha=0.1, grad_size=4)
        state, records = run(ctx, np.zeros(5), epochs=0)
        assert state.k == 0
        assert len(records) == 1
        assert records[0].k == 0
        assert records[0].grad_norm is not None

    def test_fan_refuses_huge_dimension(self):
        h = np.repeat(np.eye(3)[None], 4, axis=0)
        prob = SyntheticSumProblem(problems._pack(h), np.zeros((4, 3)))
        prob.dim = 4096  # simulate a big problem
        from hessavg.optimizers import init_state

        with pytest.raises(ValueError, match="refusing"):
            init_state(MethodSpec(name="fan"), prob, np.zeros(3))

    def test_subnewton_refuses_huge_dimension(self):
        h = np.repeat(np.eye(3)[None], 4, axis=0)
        prob = SyntheticSumProblem(problems._pack(h), np.zeros((4, 3)))
        prob.dim = 4096
        with pytest.raises(ValueError, match="^subnewton .* refusing"):
            init_state(MethodSpec(name="subnewton"), prob, np.zeros(3))

    def test_eec_counter_tracks_samples(self):
        # fixed sizes, |S| = |X|, hf = 1: the counter equals the exact
        # per-epoch charge (1 + 2 rank); the closed formula adds a first-
        # epoch term that assumes hf > 1, so they agree to within 2 rank.
        prob = SyntheticSumProblem.generate(16, 5, seed=8)
        method = MethodSpec(name="dan", rank=2)
        ctx = make_ctx(prob, method, alpha=0.05, grad_size=4, hess_size=4)
        state, records = run(ctx, np.zeros(5), epochs=3)
        epochs = records[-1].epoch
        assert records[-1].eec == pytest.approx((1 + 2 * 2) * epochs)
        assert abs(records[-1].eec - eec(epochs, rank=2, hessian_freq=1)) <= 2 * 2 + 1e-9

    def test_eec_counter_near_formula_with_infrequent_updates(self):
        # warmup of one epoch, then every hf iterations: the counter matches
        # the closed formula up to its first-epoch approximation 2 rank / hf
        prob = SyntheticSumProblem.generate(16, 5, seed=8)
        rank, hf = 2, 4
        iters_per_epoch = 4  # N=16, |X|=4
        method = MethodSpec(name="dan", rank=rank)
        policy = UpdateFrequencyPolicy(warmup=iters_per_epoch, hf=hf)
        ctx = make_ctx(prob, method, alpha=0.05, grad_size=4, hess_size=4, policy=policy)
        state, records = run(ctx, np.zeros(5), epochs=9)
        epochs = records[-1].epoch
        formula = eec(epochs, rank=rank, hessian_freq=hf)
        assert abs(records[-1].eec - formula) <= 2 * rank / hf + 1e-9


class _CountingQuadratic(QuadraticProblem):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grad_full_calls = 0

    def grad_full(self, w):
        self.grad_full_calls += 1
        return super().grad_full(w)


class _CountingSum(SyntheticSumProblem):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = {"loss_grad_sub": 0, "grad_full": 0}

    def loss_grad_sub(self, w, sample):
        self.calls["loss_grad_sub"] += 1
        return super().loss_grad_sub(w, sample)

    def grad_full(self, w):
        self.calls["grad_full"] += 1
        return super().grad_full(w)


def _exact_test_ctx(oracle, method, a_mode="identity"):
    return make_ctx(
        oracle,
        method,
        trace_interval=1,
        controller=GradSampleController(mode="exact_norm_test", sizes=(4,), cap=64, a_mode=a_mode),
        schedules=ScheduleSet(AlphaConstant(0.5), ThetaConstant(0.9), IotaGeometric(0.0, 0.0)),
    )


class TestFullGradientSharing:
    def test_one_full_gradient_per_iterate(self):
        base = quadratic_generate(d=8, seed=1)
        prob = _CountingQuadratic(base.a, base.b, base.keep_prob)
        ctx = _exact_test_ctx(prob, MethodSpec(name="fan", mu_tilde=1e-3))
        state, records = run(ctx, np.ones(8), epochs=0.2)
        assert state.k == 20
        # the norm test and the snapshot share one pass, plus the final record
        assert prob.grad_full_calls == state.k + 1
        assert all(r.grad_norm is not None for r in records)

    def test_a_batch_of_every_component_is_the_full_gradient(self):
        # curvature 0: the optimum is one solve, with no Newton-polish gradients
        prob = _CountingSum.generate(n_components=64, d=6, seed=2)
        ctx = replace(_exact_test_ctx(prob, MethodSpec(name="fan", mu_tilde=1e-3)), trace_interval=5)
        state, records = run(ctx, np.ones(6), epochs=10)
        # each step below the whole sum runs the exact test on one full pass;
        # a traced step at the whole sum, and the final record, read it from
        # their batch call
        below = sum(r.x_size < 64 for r in records)
        assert 0 < below < state.k
        assert any(r.x_size == 64 and r.k % 5 == 0 for r in records[:-1])
        assert records[-1].x_size == 64 and all(r.grad_norm is not None for r in records if r.k % 5 == 0)
        assert prob.calls == {"loss_grad_sub": state.k + 1, "grad_full": below}

    def test_unknown_a_mode_rejected(self):
        prob = quadratic_generate(d=8, seed=1)
        with pytest.raises(ValueError, match="a_mode"):
            _exact_test_ctx(prob, MethodSpec(name="fan"), a_mode="inverse_hesian")

    def test_inverse_hessian_a_mode_needs_the_exact_test(self):
        # the approximate test reads no weighting, so it would run unweighted;
        # the context is refused when built, as its controller is
        prob = quadratic_generate(d=8, seed=1)
        with pytest.raises(ValueError, match="a_mode 'inverse_hessian'.*'approx_norm_test'"):
            make_ctx(
                prob,
                MethodSpec(name="fan"),
                controller=GradSampleController(mode="approx_norm_test", sizes=(4,), cap=64, a_mode="inverse_hessian"),
            )

    def test_inverse_hessian_a_mode_needs_a_full_hessian_method(self):
        # a diagonal method has no full average to weight the test by
        prob = quadratic_generate(d=8, seed=1)
        with pytest.raises(ValueError, match="^a_mode 'inverse_hessian' .* needs method fan or subnewton, not 'dan'$"):
            _exact_test_ctx(prob, MethodSpec(name="dan"), a_mode="inverse_hessian")


class _CountingComponentSum(_CountingSum):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls["component_grads"] = 0

    def component_grads(self, w, sample):
        self.calls["component_grads"] += 1
        return super().component_grads(w, sample)


class _RecordingLogistic(LogisticProblem):
    def draw_sample(self, rng, size):
        self.last_sample = super().draw_sample(rng, size)
        return self.last_sample


@dataclass(frozen=True)
class _CountingController(GradSampleController):
    tests: list = field(default_factory=list)  # one entry per norm test

    def record_test(self, *args):
        self.tests.append(args)
        return super().record_test(*args)


def _steps_across_the_cap(mode, n_steps=24):
    """Per-step ``(started below the cap, traced, oracle calls, tests run)``
    over a run whose batch grows from 4 to its cap of 16 within a few steps."""
    prob = _CountingComponentSum.generate(n_components=64, d=6, seed=2, curvature=2.0)
    ctx = make_ctx(
        prob,
        MethodSpec(name="fan", mu_tilde=1e-3),
        trace_interval=5,
        controller=_CountingController(mode=mode, sizes=(4,), cap=16),
        schedules=ScheduleSet(AlphaConstant(0.5), ThetaConstant(0.1), IotaGeometric(0.0, 0.0)),
    )
    state = init_state(ctx.method, prob, np.ones(6))
    prob.optimum()  # its Newton polish calls grad_full; the first snapshot would count it
    steps = []
    for _ in range(n_steps):
        below = ctx.controller.size(ctx.epoch_of(state), state.batch) < ctx.controller.cap
        traced = state.k % ctx.trace_interval == 0
        before = dict(prob.calls)
        tests_before = len(ctx.controller.tests)
        state, _ = step(ctx, state)
        calls = {name: count - before[name] for name, count in prob.calls.items() if count > before[name]}
        steps.append((below, traced, calls, len(ctx.controller.tests) - tests_before))
    assert any(below for below, *_ in steps)
    assert any(not below and not traced for below, traced, *_ in steps)
    return steps


class TestNormTestOnlyBelowTheCap:
    @pytest.mark.parametrize("mode", ["exact_norm_test", "approx_norm_test"])
    def test_a_step_below_the_cap_runs_its_test(self, mode):
        for below, traced, calls, tests in _steps_across_the_cap(mode):
            if not below:
                continue
            assert tests == 1
            if mode == "exact_norm_test":
                assert calls == {"loss_grad_sub": 1, "grad_full": 1}
            else:
                # the batch values come from the batch call; the components serve the variance only
                full = {"grad_full": 1} if traced else {}
                assert calls == {"loss_grad_sub": 1, **full, "component_grads": 1}

    def test_an_untraced_approx_step_moves_along_the_batch_gradient(self):
        prob = _RecordingLogistic(*make_synthetic_logistic(n=400, d=12, seed=3))
        ctx = make_ctx(
            prob,
            MethodSpec(name="sgd"),
            trace_interval=1000,
            controller=GradSampleController(mode="approx_norm_test", sizes=(4,), cap=400),
            # batch sizes 4, 5, 19, 111, then the cap: three untraced steps below it
            schedules=ScheduleSet(AlphaConstant(0.5), ThetaConstant(1.0), IotaGeometric(0.0, 0.0)),
        )
        state = init_state(ctx.method, prob, np.ones(12))
        checked = 0
        for _ in range(8):
            below = ctx.controller.can_grow(ctx.controller.size(ctx.epoch_of(state), state.batch))
            w, traced = state.w.copy(), state.k % ctx.trace_interval == 0
            state, _ = step(ctx, state)
            if below and not traced:
                # bit for bit the oracle's batch gradient, not the mean of the component gradients
                assert np.array_equal(state.w, w - 0.5 * prob.loss_grad_sub(w, prob.last_sample)[1])
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("mode", ["exact_norm_test", "approx_norm_test"])
    def test_a_step_at_the_cap_computes_what_a_fixed_step_does(self, mode):
        for below, traced, calls, tests in _steps_across_the_cap(mode):
            if below:
                continue
            assert tests == 0
            assert calls == ({"loss_grad_sub": 1, "grad_full": 1} if traced else {"loss_grad_sub": 1})

    @pytest.mark.parametrize("mode", ["exact_norm_test", "approx_norm_test"])
    @pytest.mark.parametrize("kind", ["logistic", "sum"])
    def test_a_run_that_starts_at_the_cap_is_the_fixed_run(self, kind, mode):
        if kind == "logistic":
            prob = LogisticProblem(*make_synthetic_logistic(n=400, d=12, seed=3))
            method, size, epochs = MethodSpec(name="dan", rank=2, eps=1e-2), 32, 2
        else:
            prob = SyntheticSumProblem.generate(n_components=64, d=6, seed=2, curvature=2.0)
            method, size, epochs = MethodSpec(name="fan", mu_tilde=1e-3), 64, 12
        runs = {}
        for grad_mode in ("fixed", mode):
            ctx = make_ctx(
                prob,
                method,
                seed=1,
                hess_size=16,
                trace_interval=3,
                controller=GradSampleController(mode=grad_mode, sizes=(size,), cap=size),
                schedules=ScheduleSet(AlphaConstant(0.5), ThetaConstant(0.1), IotaGeometric(0.0, 0.0)),
            )
            _, runs[grad_mode] = run(ctx, np.zeros(prob.dim), epochs=epochs)
        assert len(runs["fixed"]) > 10
        assert runs[mode] == runs["fixed"]

    @pytest.mark.parametrize(
        "method, a_mode", [("fan", "inverse_hesian"), ("dan", "inverse_hessian")], ids=["misspelt", "diagonal"]
    )
    def test_a_mode_checked_when_no_test_will_run(self, method, a_mode):
        # a batch that starts at its cap runs no test; the context is refused when built
        prob = quadratic_generate(d=8, seed=1)
        with pytest.raises(ValueError, match="a_mode"):
            make_ctx(
                prob,
                MethodSpec(name=method),
                controller=GradSampleController(mode="exact_norm_test", sizes=(8,), cap=8, a_mode=a_mode),
            )


# One small config of each problem kind, the rippled synthetic sum among them.
_OBSERVED_PROBLEMS = {
    "quadratic": ({"kind": "quadratic", "d": 8, "seed": 1}, 0.3),
    "synthetic_sum": ({"kind": "synthetic_sum", "n_components": 64, "d": 6, "curvature": 2.0, "seed": 2}, 6),
    "synthetic_logistic": ({"kind": "synthetic_logistic", "n": 400, "d": 12, "seed": 3}, 1),
}
_OBSERVED_METHODS = {"sgd": {"name": "sgd"}, "fan": {"name": "fan", "mu_tilde": 1e-3}, "dan": {"name": "dan", "rank": 2}}
# The exact test reaches its cap within each run: a step below the cap reads
# the full gradient whether traced or not, one at the cap only when traced.
_OBSERVED_GRADS = {
    "fixed": {"mode": "fixed", "size": 16},
    "exact_norm_test": {"mode": "exact_norm_test", "initial_size": 4, "cap": 32},
}
# Norm tests with no cap that grow the batch to every component of a finite
# sum within a few steps, where a traced step reads the full gradient from its
# batch call: each problem's test, epochs and component count. On the
# logistic problem the exact test passes too often to get there.
_WHOLE_SUM_RUNS = {
    "synthetic_sum": ({"mode": "exact_norm_test", "initial_size": 4}, None, 64),
    "synthetic_logistic": ({"mode": "approx_norm_test", "initial_size": 4}, 10, 400),
}
# grad_norm is written on traced steps only, so it is left out.
_OBSERVED_FIELDS = ("k", "f", "x_size", "s_size", "hvp_probes", "eec", "dist_to_opt")


class TestTraceIntervalOnlyObserves:
    """A traced step reads the full gradient, an untraced one may not; the
    batch call is the same, so how often a run is traced never changes it."""

    @staticmethod
    def _run(problem, method, grad, trace_interval, epochs=None):
        spec, default_epochs = _OBSERVED_PROBLEMS[problem]
        sampling = {"grad": grad}
        if method != "sgd":
            sampling["hess"] = {"kind": "iid", "size": 8}
        cfg = ExperimentConfig.from_dict(
            {
                "problem": spec,
                "method": _OBSERVED_METHODS[method],
                "sampling": sampling,
                "schedules": {"alpha": {"kind": "constant", "alpha": 0.5}, "theta": {"kind": "constant", "theta": 0.9}},
                "epochs": epochs or default_epochs,
                "trace_interval": trace_interval,
                "seed": 5,
            }
        )
        ctx, w0 = build_context(cfg)
        return run(ctx, w0, cfg.epochs)

    @pytest.mark.parametrize("grad", sorted(_OBSERVED_GRADS))
    @pytest.mark.parametrize("method", sorted(_OBSERVED_METHODS))
    @pytest.mark.parametrize("problem", sorted(_OBSERVED_PROBLEMS))
    def test_every_step_traced_or_none_is_the_same_run(self, problem, method, grad):
        # the exact test ends at its cap
        self._assert_same_run(problem, method, _OBSERVED_GRADS[grad], 16 if grad == "fixed" else 32)

    @pytest.mark.parametrize("method", sorted(_OBSERVED_METHODS))
    @pytest.mark.parametrize("problem", sorted(_WHOLE_SUM_RUNS))
    def test_a_run_whose_batch_reaches_the_whole_sum_is_the_same_run(self, problem, method):
        grad, epochs, n = _WHOLE_SUM_RUNS[problem]
        records = self._assert_same_run(problem, method, grad, n, epochs)
        assert sum(r.x_size == n for r in records[:-1]) >= 3

    def _assert_same_run(self, problem, method, grad, final_size, epochs=None):
        """Check a run traced at every step against one never traced, and
        return the first's records."""
        every, every_records = self._run(problem, method, grad, 1, epochs)
        rarely, rarely_records = self._run(problem, method, grad, 10**6, epochs)
        assert every.k > 10
        assert every_records[-1].x_size == final_size
        assert np.array_equal(every.w, rarely.w)
        assert [[getattr(r, f) for f in _OBSERVED_FIELDS] for r in every_records] == [
            [getattr(r, f) for f in _OBSERVED_FIELDS] for r in rarely_records
        ]
        return every_records


def _rate_report(method: str, seed: int, alpha: float = 1.0, norm_tested: bool = False) -> RateReport:
    """Rate fit of ``dist_to_opt`` over 80 steps at step ``alpha``: at full
    gradients, or ``norm_tested`` from a batch of 4 with ``theta_l`` 0.5."""
    grad = {"mode": "fixed", "size": 256}
    schedules = {"alpha": {"kind": "constant", "alpha": alpha}}
    if norm_tested:
        grad = {"mode": "exact_norm_test", "initial_size": 4}
        schedules["theta"] = {"kind": "local_det", "theta_l": 0.5}
    raw = {
        "problem": {
            "kind": "synthetic_sum",
            "n_components": 256,
            "d": 20,
            "curvature": 2.0,
            "coupling": 0.9,
            "seed": seed,
        },
        "method": {"name": method},
        "sampling": {"grad": grad, "hess": {"kind": "iid", "size": 4}},
        "schedules": schedules,
        "trace_interval": 1,
        "epochs": 80,
        "seed": seed,
    }
    records = run_experiment(ExperimentConfig.from_dict(raw)).records
    return estimate_rates([r.dist_to_opt for r in records])


class TestAveragedNewtonRates:
    """Averaged Hessians give a superlinear rate; the newest Hessian alone gives a linear one.

    This is the averaged-Newton claim (Na, Derezinski & Mahoney, arXiv
    2204.09266) that the paper's methods build on, at full gradients with
    iid Hessian batches of 4. ``estimate_rates`` fits ``log(e_{k+1}/e_k)``
    against ``log(k+1)``: a negative slope means shrinking ratios
    (superlinear), a slope near zero a constant ratio (linear). Seeds 0-5
    gave fan -0.27 to -0.45 and subnewton -0.02 to +0.13.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_fan_superlinear_where_subnewton_is_linear(self, seed):
        assert _rate_report("fan", seed).slope < -0.2
        assert _rate_report("subnewton", seed).slope > -0.1


class TestNormTestedSeparation:
    """Averaging still separates fan from subnewton when a norm test sizes the gradient batch.

    Same instance as :class:`TestAveragedNewtonRates`, with the exact norm
    test from a batch of 4 and ``theta_l / (k + 1)``, ``theta_l`` 0.5. The
    batch reaches all N = 256 components by step 4 (step 5 for fan at seed
    4), so gradients are inexact only in the global phase and the local
    rates fitted here are those of full gradients. Seeds 0-5 gave fan
    -0.997 to -0.859 and subnewton -0.506 to -0.285; seeds 6-11, not used to
    set the margin, gave fan -1.028 to -0.867 and subnewton -0.449 to
    -0.270. The smallest gap over the 12 seeds was 0.422.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_fan_slope_well_below_subnewton(self, seed):
        fan = _rate_report("fan", seed, norm_tested=True).slope
        subnewton = _rate_report("subnewton", seed, norm_tested=True).slope
        assert fan < subnewton - 0.3


class TestDiagonalNewtonLinearRate:
    """dan, the diagonal averaged method, converges linearly at alpha 0.5.

    Same instance as :class:`TestAveragedNewtonRates`. Seeds 0-5 gave
    slopes -0.05 to +0.11, ``rho_bar`` 0.775 to 0.828 over all 79 ratios,
    and a final ``dist_to_opt`` of 5.9e-9 to 1.4e-6 from 3.4-6.7. At
    alpha 1 the same runs do not converge reliably (``rho_bar`` at or
    above 1 on four seeds), so the check pins the step size.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_dan_linear_at_half_step(self, seed):
        report = _rate_report("dan", seed, alpha=0.5)
        assert report.n_points == 79  # no ratio reached the floor
        assert -0.2 < report.slope < 0.25
        assert report.rho_bar < 0.9
