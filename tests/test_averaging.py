import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg import averaging, linalg, problems
from hessavg.averaging import (
    DiagAverageState,
    FullAverageState,
    UpdateFrequencyPolicy,
    _Accumulator,
    hutchinson_diag,
)
from hessavg import rng as rng_mod
from hessavg.linalg import EigDecomposition, NotPositiveDefiniteError, check_symmetric, pd_modify, spd_solve
from hessavg.problems import SyntheticSumProblem, quadratic_generate
from hessavg.sampling import CyclicSampler, IidSampler


def ema_weights(beta2, k):
    """Implied weights of the bias-corrected EMA on terms 1..k."""
    raw = np.array([(1 - beta2) * beta2 ** (k - i) for i in range(1, k + 1)])
    return raw / (1 - beta2**k)


class TestFullAverage:
    def test_first_update_is_input(self):
        state = FullAverageState(2, 1e-4)
        h = np.array([[1.0, 0.2], [0.2, 2.0]])
        state.update(h)
        np.testing.assert_allclose(state.matrix(), h)

    def test_constant_input_fixed_point(self):
        state = FullAverageState(3, 1e-4)
        h = np.diag([1.0, 2.0, 3.0])
        for _ in range(10):
            state.update(h)
        np.testing.assert_allclose(state.matrix(), h, atol=1e-12)

    def test_uniform_mean(self):
        state = FullAverageState(2, 1e-4)
        state.update(np.diag([1.0, 1.0]))
        state.update(np.diag([3.0, 5.0]))
        np.testing.assert_allclose(state.matrix(), np.diag([2.0, 3.0]))

    def test_uniform_matches_batch_mean(self):
        rng = np.random.default_rng(0)
        state = FullAverageState(4, 1e-4)
        hs = []
        for _ in range(17):
            m = rng.standard_normal((4, 4))
            h = 0.5 * (m + m.T)
            hs.append(h)
            state.update(h)
        np.testing.assert_allclose(state.matrix(), np.mean(hs, axis=0), atol=1e-10)

    def test_abs_variant_averages_spectral_abs(self):
        state = FullAverageState(2, 1e-4, variant="abs")
        state.update(np.diag([-1.0, 2.0]))
        state.update(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(state.matrix(), np.diag([2.0, 3.0]), atol=1e-12)

    def test_decaying_matches_weight_oracle(self):
        rng = np.random.default_rng(1)
        beta2 = 0.9
        state = FullAverageState(3, 1e-4, decay=beta2)
        hs = []
        for _ in range(9):
            m = rng.standard_normal((3, 3))
            hs.append(0.5 * (m + m.T))
            state.update(hs[-1])
        weights = ema_weights(beta2, len(hs))
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        expected = np.tensordot(weights, np.array(hs), axes=1)
        np.testing.assert_allclose(state.matrix(), expected, atol=1e-10)

    def test_preconditions_through_modification(self):
        state = FullAverageState(2, 0.5)
        state.update(np.diag([-0.2, 2.0]))
        g = np.array([1.0, 1.0])
        np.testing.assert_allclose(state.precondition(g), g / np.array([0.5, 2.3]))

    def test_abs_variant_adds_floor(self):
        state = FullAverageState(2, 0.5, variant="abs")
        state.update(np.diag([1.0, 2.0]))
        g = np.array([1.0, 1.0])
        np.testing.assert_allclose(state.precondition(g), g / np.array([1.5, 2.5]))

    def test_identity_no_shift(self):
        state = FullAverageState(3, 0.5)
        state.update(np.eye(3))
        g = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(state.precondition(g), g, atol=1e-12)

    def test_descent_alignment(self):
        # preconditioned directions keep a positive inner product with g
        rng = np.random.default_rng(2)
        state = FullAverageState(5, 1e-3)
        for _ in range(4):
            m = rng.standard_normal((5, 5))
            state.update(0.5 * (m + m.T))
        for _ in range(20):
            g = rng.standard_normal(5)
            assert g @ state.precondition(g) > 0

    def test_requires_update_before_value(self):
        with pytest.raises(ValueError):
            FullAverageState(2, 1e-4).matrix()

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FullAverageState(2, 1e-4).update(np.eye(3))


# above the dimension from which a plain average's solve runs beside its floor test
_D = averaging._OVERLAP_DIM + 32
_FLOOR = 1e-3
# spectra: one that clears the floor, one positive but below it (the shift
# path), and an indefinite one
_SPECTRA = {
    "positive_definite": np.linspace(0.01, 10.0, _D),
    "below_the_floor": np.linspace(1e-5, 10.0, _D),
    "indefinite": np.linspace(-1.0, 10.0, _D),
}


def _plain_average(spectrum, decay=None, seed=0):
    """A plain ``FullAverageState`` at ``_D`` whose average has ``spectrum``,
    made from two exactly symmetric updates."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((_D, _D)))
    h = (q * spectrum) @ q.T
    h = 0.5 * (h + h.T)
    state = FullAverageState(_D, _FLOOR, decay=decay)
    state.update(h)
    state.update(h)
    return state


@pytest.fixture
def solves_on(monkeypatch):
    """``solves_on(threads)`` sets the pass pool's thread count and returns the
    list to which each solve a precondition makes appends whether it ran on
    the calling thread."""
    seen = []
    original = averaging.spd_solve
    caller = threading.get_ident()

    def spy(h, g, work=None):
        seen.append(threading.get_ident() == caller)
        return original(h, g, work)

    def start(threads):
        monkeypatch.setattr(problems, "pass_threads", lambda: threads)
        monkeypatch.setattr(averaging, "spd_solve", spy)
        return seen

    return start


@pytest.fixture
def short_switch_interval():
    """The GIL changes hands as often as the interpreter lets it, until the test ends."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestOverlappedPrecondition:
    """From ``_OVERLAP_DIM`` rows on, a plain average's solve runs on a pool
    thread beside its floor test, speculatively. The result keeps the bits
    and the errors of the test followed by one solve, and so do the kernel
    counts when the test returns the average."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("decay", [None, 0.0])
    @pytest.mark.parametrize("kind", sorted(_SPECTRA))
    def test_bitwise_the_serial_path(self, solves_on, short_switch_interval, kind, decay, threads):
        state = _plain_average(_SPECTRA[kind], decay)
        g = np.random.default_rng(1).standard_normal(_D)
        h, _ = pd_modify(state.matrix(), _FLOOR)
        # the test returns the average as it is only when it clears the floor
        assert np.array_equal(h, state.matrix()) == (kind == "positive_definite")
        expected = spd_solve(h, g)
        ran = solves_on(threads)
        for _ in range(3):
            assert np.array_equal(state.precondition(g), expected)
        # the first solve of each call ran on the pool's thread when it had two
        assert ran[0] == (threads == 1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_eigensolve_and_one_solve_when_unshifted(self, monkeypatch, solves_on, threads):
        eigensolves = []
        original = linalg.sym_eig
        monkeypatch.setattr(linalg, "sym_eig", lambda a, vectors=True: eigensolves.append(vectors) or original(a, vectors))
        state = _plain_average(_SPECTRA["positive_definite"])
        solves = solves_on(threads)
        state.precondition(np.ones(_D))
        assert eigensolves == [False] and solves == [threads == 1]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["below_the_floor", "indefinite"])
    def test_a_modified_average_is_solved_after_the_test(self, monkeypatch, solves_on, threads, kind):
        # the indefinite average's absolute value clears the floor: the test
        # reports no shift, yet returns another matrix
        eigensolves = []
        original = linalg.sym_eig
        monkeypatch.setattr(linalg, "sym_eig", lambda a, vectors=True: eigensolves.append(vectors) or original(a, vectors))
        state = _plain_average(_SPECTRA[kind])
        assert pd_modify(state.matrix(), _FLOOR)[1] == (kind == "below_the_floor")
        eigensolves.clear()
        solves = solves_on(threads)
        state.precondition(np.ones(_D))
        assert eigensolves == [False, True]
        # one thread: one solve; two: the speculative one beside the test, then the modified one
        assert solves == ([True] if threads == 1 else [False, True])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_below_the_dimension_every_item_runs_on_the_caller(self, solves_on, threads):
        small = FullAverageState(averaging._OVERLAP_DIM - 1, _FLOOR)
        small.update(np.eye(small.dim))
        solves = solves_on(threads)
        small.precondition(np.ones(small.dim))
        assert solves == [True]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, "asymmetric"])
    def test_an_average_the_test_refuses_raises_its_error(self, solves_on, threads, entry):
        state = _plain_average(_SPECTRA["positive_definite"])
        bad = state.matrix().copy()
        if entry == "asymmetric":
            bad[3, 5] += 1.0
        else:
            bad[3, 5] = bad[5, 3] = entry
        state = FullAverageState(_D, _FLOOR)
        state.update(bad)
        with pytest.raises(ValueError) as refused:
            check_symmetric(bad)
        solves_on(threads)
        with pytest.raises(ValueError) as raised:
            state.precondition(np.ones(_D))
        assert str(raised.value) == str(refused.value)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failed_factorization_after_a_passed_test_is_raised(self, monkeypatch, solves_on, threads):
        # an eigensolve that reports the floor cleared on an indefinite
        # average: the test returns the average, whose solve fails
        original = linalg.sym_eig

        def cleared(a, vectors=True):
            return original(a, vectors) if vectors else EigDecomposition(np.array([1.0]), None)

        monkeypatch.setattr(linalg, "sym_eig", cleared)
        state = _plain_average(_SPECTRA["indefinite"])
        solves_on(threads)
        with pytest.raises(NotPositiveDefiniteError, match="leading minor"):
            state.precondition(np.ones(_D))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_right_hand_side_of_the_wrong_shape_is_refused(self, solves_on, threads):
        state = _plain_average(_SPECTRA["positive_definite"])
        solves_on(threads)
        with pytest.raises(ValueError, match="right-hand side"):
            state.precondition(np.ones(_D + 1))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_child_forked_after_an_overlapped_precondition_makes_its_own_pool(self):
        env = {**os.environ, "PYTHONPATH": str(Path(averaging.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", _FORKED_PRECONDITION], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


# a precondition in a child forked after the parent's overlapped one started
# the pool's thread
_FORKED_PRECONDITION = """
import os, signal, threading
import numpy as np
from hessavg import averaging, problems
problems.pass_threads = lambda: 2
d = averaging._OVERLAP_DIM + 32
rng = np.random.default_rng(0)
m = rng.standard_normal((d, d))
state = averaging.FullAverageState(d, 1e-3)
state.update(m @ m.T + np.eye(d))
g = rng.standard_normal(d)
parent = state.precondition(g)
assert any(t.name == "hessavg-pass" for t in threading.enumerate())
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if np.array_equal(state.precondition(g), parent) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


class TestDiagAverage:
    def test_l1_single(self):
        state = DiagAverageState(2, 1e-6, p=1)
        state.update(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(state.preconditioner(), [1.0, 2.0])

    def test_l2_rms(self):
        state = DiagAverageState(2, 1e-6, p=2)
        state.update(np.array([3.0, 0.0]))
        state.update(np.array([4.0, 0.0]))
        np.testing.assert_allclose(state.preconditioner(), [np.sqrt(12.5), 0.0])

    def test_l2_constant_is_abs(self):
        state = DiagAverageState(3, 1e-6, p=2)
        d = np.array([-2.0, 0.5, 1.0])
        for _ in range(7):
            state.update(d)
        np.testing.assert_allclose(state.preconditioner(), np.abs(d), atol=1e-12)

    def test_precondition_elementwise(self):
        state = DiagAverageState(2, 0.0, p=1)
        state.update(np.array([2.0, 4.0]))
        np.testing.assert_allclose(state.precondition(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_decaying_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        beta2 = 0.99
        state = DiagAverageState(4, 1e-6, p=1, decay=beta2)
        ds = []
        for _ in range(23):
            ds.append(rng.standard_normal(4))
            state.update(ds[-1])
        weights = ema_weights(beta2, len(ds))
        expected = np.tensordot(weights, np.abs(np.array(ds)), axes=1)
        np.testing.assert_allclose(state.preconditioner(), expected, atol=1e-12)


def ema_values(decay, values):
    """The accumulator's value after each of ``values``."""
    acc = _Accumulator(decay)
    out = []
    for value in values:
        acc.update(value)
        out.append(acc.value())
    return out


class TestDecayingStep:
    """The bias-corrected EMA, the one the averaging states and adam share."""

    def test_constant_sequence_reproduced(self):
        value = np.array([2.0, -1.0])
        for corrected in ema_values(0.9, [value] * 11):
            np.testing.assert_allclose(corrected, value, atol=1e-12)

    def test_first_step_returns_input(self):
        np.testing.assert_allclose(ema_values(0.3, [np.array([5.0])])[0], [5.0])

    def test_two_step_scalar(self):
        # decay 0.5, D1=0, D2=4: S2 = 0.5*S1 + 0.5*4 = 2, corrected = 2/0.75
        # (equals the weight-oracle value: (1/3)*0 + (2/3)*4)
        c2 = ema_values(0.5, [0.0, 4.0])[1]
        weights = ema_weights(0.5, 2)
        assert c2 == pytest.approx(weights[0] * 0.0 + weights[1] * 4.0)
        assert c2 == pytest.approx(8.0 / 3.0)

    @given(beta2=st.floats(0.05, 0.995), k=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_weight_oracle(self, beta2, k):
        rng = np.random.default_rng(7)
        ds = rng.standard_normal(k)
        corrected = ema_values(beta2, ds)[-1]
        weights = ema_weights(beta2, k)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert corrected == pytest.approx(float(weights @ ds), rel=1e-9, abs=1e-9)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            _Accumulator(1.0)

    @pytest.mark.parametrize("decay", [0.05, 0.5, 0.9, 0.999])
    def test_matches_the_accumulator(self, decay):
        # the raw recurrence S_k = decay S_{k-1} + (1 - decay) D_k, corrected
        # at every step, is the accumulator's lazily corrected value
        rng = np.random.default_rng(11)
        ds = rng.standard_normal((50, 5))
        s = np.zeros(5)
        for k, (d_new, value) in enumerate(zip(ds, ema_values(decay, ds)), start=1):
            s = decay * s + (1 - decay) * d_new
            np.testing.assert_allclose(value, s / (1 - decay**k), rtol=1e-12, atol=0)

    def test_zero_decay_keeps_only_the_newest(self):
        # subnewton's average: after each update the value is that update, bit for bit
        rng = np.random.default_rng(12)
        acc = _Accumulator(0.0)
        for _ in range(6):
            value = rng.standard_normal((4, 4))
            acc.update(value)
            assert acc.value().tobytes() == value.tobytes()

    @pytest.mark.parametrize("decay", [-0.1, 1.0])
    def test_accumulator_rejects_decay_outside_its_domain(self, decay):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _Accumulator(decay)


class TestHutchinson:
    def test_exact_on_diagonal(self):
        d = np.array([3.0, -1.0, 0.5, 2.0])
        rng = rng_mod.stream(0, "probes")
        est = hutchinson_diag(lambda z: d[:, None] * z, 4, 1, rng)
        np.testing.assert_allclose(est, d, atol=1e-14)

    def test_sign_pattern_average_cancels_offdiagonal(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        total = np.zeros(2)
        for z1 in (-1.0, 1.0):
            for z2 in (-1.0, 1.0):
                z = np.array([z1, z2])
                total += z * (h @ z)
        np.testing.assert_allclose(total / 4.0, [0.0, 0.0], atol=1e-15)

    def test_monte_carlo_mean(self):
        rng_h = np.random.default_rng(5)
        m = rng_h.standard_normal((16, 16))
        h = 0.5 * (m + m.T)
        rng = rng_mod.stream(1, "probes")
        draws = np.array(
            [
                hutchinson_diag(lambda z: h @ z, 16, 1, rng)
                for _ in range(10_000)
            ]
        )
        mean = draws.mean(axis=0)
        se = draws.std(axis=0) / np.sqrt(len(draws))
        assert np.all(np.abs(mean - np.diag(h)) <= 4 * se + 1e-12)

    def test_variance_scales_inverse_rank(self):
        rng_h = np.random.default_rng(6)
        m = rng_h.standard_normal((24, 24))
        h = 0.5 * (m + m.T)
        rng = rng_mod.stream(2, "probes")

        def variance(rank, trials=3000):
            draws = np.array(
                [
                    hutchinson_diag(lambda z: h @ z, 24, rank, rng)
                    for _ in range(trials)
                ]
            )
            return draws.var(axis=0).mean()

        ratio = variance(2) / variance(4)
        assert 1.6 <= ratio <= 2.4

    def test_rejects_nonfinite_hvp(self):
        rng = rng_mod.stream(3, "probes")
        with pytest.raises(ValueError):
            hutchinson_diag(lambda z: z * np.nan, 3, 1, rng)

    def test_missing_probe_stream_rejected(self):
        with pytest.raises(ValueError, match="probe stream"):
            hutchinson_diag(lambda z: z, 3, 1, None)

    def test_rank_validated(self):
        with pytest.raises(ValueError, match="rank"):
            hutchinson_diag(lambda z: z, 3, 0, rng_mod.stream(4, "probes"))


class TestUpdatePolicy:
    def test_warmup_always_updates(self):
        policy = UpdateFrequencyPolicy(warmup=10, hf=10)
        assert policy.should_update(3)

    def test_off_cycle_skipped(self):
        policy = UpdateFrequencyPolicy(warmup=10, hf=10)
        assert not policy.should_update(15)

    def test_on_cycle_updates(self):
        policy = UpdateFrequencyPolicy(warmup=10, hf=10)
        assert policy.should_update(20)

    def test_default_updates_every_iteration(self):
        policy = UpdateFrequencyPolicy()
        assert all(policy.should_update(k) for k in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateFrequencyPolicy(hf=0)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: FullAverageState(2, 1e-4, variant="square"), "^variant must be 'plain' or 'abs', got 'square'$"),
        (lambda: DiagAverageState(2, 1e-4, p=3), "^p must be 1 or 2, got 3$"),
        (lambda: DiagAverageState(2, 1e-4).update(np.ones(3)), r"^expected shape \(2,\), got \(3,\)$"),
        (
            lambda: hutchinson_diag(lambda z: z[:, 0], 3, 2, rng_mod.stream(4, "probes")),
            r"^hvp returned shape \(3,\), expected \(3, 2\)$",
        ),
        (lambda: UpdateFrequencyPolicy(warmup=-1), "^warmup must be >= 0$"),
    ],
    ids=["full_variant", "diag_p", "diag_shape", "hutchinson_product_shape", "negative_warmup"],
)
def test_a_value_the_curvature_state_cannot_use_is_refused(make, match):
    with pytest.raises(ValueError, match=match):
        make()


class TestExpectationHessianError:
    """On the masked quadratic, the expectation problem, the averaged
    Hessian's error decays as O(1/sqrt(k)) under iid masks.

    ``hessian_sub`` is ``2 A^T diag(mean_keep) A``, whose expectation is
    ``2p A^T A`` in closed form, so the error of the average is measured
    against the exact Hessian with no finite sum to cover. One seed's fit
    is too noisy to assert on (seeds 0-11 gave -0.31 to -0.65), so the fit
    pools seeds 0-5: -0.498 there, and -0.476, -0.515, -0.568 and -0.459
    on seeds 6-11, 12-17, 18-23 and 24-29, each in about half a second at
    one BLAS thread.
    """

    def test_iid_error_decays_as_one_over_root_k(self):
        ks, errors = [], []
        for seed in range(6):
            problem = quadratic_generate(20, seed=seed)
            exact = 2.0 * problem.keep_prob * problem.a.T @ problem.a
            sampler, rng, avg = IidSampler(4), rng_mod.stream(seed, "hessian"), FullAverageState(20, 1e-4)
            for k in range(1, 2049):
                avg.update(problem.hessian_sub(np.zeros(20), sampler.next_block(k - 1, problem, rng)))
                if k >= 64 and k % 16 == 8:
                    ks.append(k)
                    errors.append(np.linalg.norm(avg.matrix() - exact, 2))
        assert -0.6 < np.polyfit(np.log(ks), np.log(errors), 1)[0] < -0.4


def _averaged_hessian_error_slope(sampler_kind: str, seed: int) -> float:
    """Log-log slope of ``||H_bar_k - H||_2`` against ``k`` at the optimum.

    ``H_bar_k`` is the uniform average of ``k`` subsampled Hessians on
    blocks of 4, and ``H`` the full Hessian. Errors are read at ``k >= 64``
    with ``k = 8 (mod 16)``, so the cyclic points sit mid-cycle.
    """
    problem = SyntheticSumProblem.generate(256, 20, seed, curvature=2.0, coupling=0.9)
    w_star = problem.optimum()[0]
    full = problem.hessian_full(w_star)
    sampler = CyclicSampler(256, 4) if sampler_kind == "cyclic" else IidSampler(4)
    rng = rng_mod.stream(seed, "hessian")
    avg = FullAverageState(20, 1e-4)
    ks, errors = [], []
    for k in range(1, 1025):
        avg.update(problem.hessian_sub(w_star, sampler.next_block(k - 1, problem, rng)))
        if k >= 64 and k % 16 == 8:
            ks.append(k)
            errors.append(np.linalg.norm(avg.matrix() - full, 2))
    return float(np.polyfit(np.log(ks), np.log(errors), 1)[0])


class TestAveragedHessianError:
    """The averaged Hessian's error decays as O(1/k) under cyclic sampling
    and as O(1/sqrt(k)) under iid sampling.

    These are the mechanism behind the paper's local rates: O(1/k) for
    deterministic (cyclic) and O(1/sqrt(k)) for stochastic (iid) Hessian
    batches; Na, Derezinski & Mahoney (arXiv 2204.09266) give
    O(sqrt(log k / k)) for iid. The error has no floor, so its exponent
    can be fitted. Seeds 0-5 gave cyclic slopes -0.996 to -1.010 and iid
    -0.431 to -0.591, with one BLAS thread and under a second for all
    twelve runs.

    Ratio fits of the iterates cannot resolve these exponents. fan on the
    synthetic sum at curvature 2, full gradients and alpha 1 gave slopes
    from -0.19 to -0.79 for both samplers, from 13-25 ratios, over N 64 or
    256, d 20 or 50, coupling 0.9 or 0.99, curvature 2 or 8, freq 10 or
    30 and Hessian batches of 1 or 4 (seeds 0-3): the two samplers'
    ranges overlap on every variant, because the iterate reaches the
    1e-13 floor in about 20 steps.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_cyclic_error_decays_as_one_over_k(self, seed):
        assert -1.1 < _averaged_hessian_error_slope("cyclic", seed) < -0.9

    @pytest.mark.parametrize("seed", range(6))
    def test_iid_error_decays_as_one_over_root_k(self, seed):
        assert -0.75 < _averaged_hessian_error_slope("iid", seed) < -0.3
