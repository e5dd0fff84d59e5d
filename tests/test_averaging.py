import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessavg.averaging import (
    DiagAverageState,
    FullAverageState,
    UpdateFrequencyPolicy,
    _Accumulator,
    decaying_step,
    hutchinson_diag,
)
from hessavg import rng as rng_mod


def ema_weights(beta2, k):
    """Implied weights of the bias-corrected EMA on terms 1..k."""
    raw = np.array([(1 - beta2) * beta2 ** (k - i) for i in range(1, k + 1)])
    return raw / (1 - beta2**k)


class TestFullAverage:
    def test_first_update_is_input(self):
        state = FullAverageState(2)
        h = np.array([[1.0, 0.2], [0.2, 2.0]])
        state.update(h)
        np.testing.assert_allclose(state.matrix(), h)

    def test_constant_input_fixed_point(self):
        state = FullAverageState(3)
        h = np.diag([1.0, 2.0, 3.0])
        for _ in range(10):
            state.update(h)
        np.testing.assert_allclose(state.matrix(), h, atol=1e-12)

    def test_uniform_mean(self):
        state = FullAverageState(2)
        state.update(np.diag([1.0, 1.0]))
        state.update(np.diag([3.0, 5.0]))
        np.testing.assert_allclose(state.matrix(), np.diag([2.0, 3.0]))

    def test_uniform_matches_batch_mean(self):
        rng = np.random.default_rng(0)
        state = FullAverageState(4)
        hs = []
        for _ in range(17):
            m = rng.standard_normal((4, 4))
            h = 0.5 * (m + m.T)
            hs.append(h)
            state.update(h)
        np.testing.assert_allclose(state.matrix(), np.mean(hs, axis=0), atol=1e-10)

    def test_abs_variant_averages_spectral_abs(self):
        state = FullAverageState(2, variant="abs")
        state.update(np.diag([-1.0, 2.0]))
        state.update(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(state.matrix(), np.diag([2.0, 3.0]), atol=1e-12)

    def test_decaying_matches_weight_oracle(self):
        rng = np.random.default_rng(1)
        beta2 = 0.9
        state = FullAverageState(3, decay=beta2)
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
        state = FullAverageState(2)
        state.update(np.diag([-0.2, 2.0]))
        g = np.array([1.0, 1.0])
        np.testing.assert_allclose(state.precondition(g, 0.5), g / np.array([0.5, 2.3]))

    def test_abs_variant_adds_floor(self):
        state = FullAverageState(2, variant="abs")
        state.update(np.diag([1.0, 2.0]))
        g = np.array([1.0, 1.0])
        np.testing.assert_allclose(state.precondition(g, 0.5), g / np.array([1.5, 2.5]))

    def test_identity_no_shift(self):
        state = FullAverageState(3)
        state.update(np.eye(3))
        g = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(state.precondition(g, 0.5), g, atol=1e-12)

    def test_descent_alignment(self):
        # preconditioned directions keep a positive inner product with g
        rng = np.random.default_rng(2)
        state = FullAverageState(5)
        for _ in range(4):
            m = rng.standard_normal((5, 5))
            state.update(0.5 * (m + m.T))
        for _ in range(20):
            g = rng.standard_normal(5)
            assert g @ state.precondition(g, 1e-3) > 0

    def test_requires_update_before_value(self):
        with pytest.raises(ValueError):
            FullAverageState(2).matrix()

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FullAverageState(2).update(np.eye(3))


class TestDiagAverage:
    def test_l1_single(self):
        state = DiagAverageState(2, p=1)
        state.update(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(state.preconditioner(), [1.0, 2.0])

    def test_l2_rms(self):
        state = DiagAverageState(2, p=2)
        state.update(np.array([3.0, 0.0]))
        state.update(np.array([4.0, 0.0]))
        np.testing.assert_allclose(state.preconditioner(), [np.sqrt(12.5), 0.0])

    def test_l2_constant_is_abs(self):
        state = DiagAverageState(3, p=2)
        d = np.array([-2.0, 0.5, 1.0])
        for _ in range(7):
            state.update(d)
        np.testing.assert_allclose(state.preconditioner(), np.abs(d), atol=1e-12)

    def test_precondition_elementwise(self):
        state = DiagAverageState(2, p=1)
        state.update(np.array([2.0, 4.0]))
        np.testing.assert_allclose(state.precondition(np.array([2.0, 8.0]), 0.0), [1.0, 2.0])

    def test_decaying_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        beta2 = 0.99
        state = DiagAverageState(4, p=1, decay=beta2)
        ds = []
        for _ in range(23):
            ds.append(rng.standard_normal(4))
            state.update(ds[-1])
        weights = ema_weights(beta2, len(ds))
        expected = np.tensordot(weights, np.abs(np.array(ds)), axes=1)
        np.testing.assert_allclose(state.preconditioner(), expected, atol=1e-12)


class TestDecayingStep:
    def test_constant_sequence_reproduced(self):
        value = np.array([2.0, -1.0])
        corrected = None
        for k in range(1, 12):
            corrected = decaying_step(corrected if k > 1 else 0.0, value, 0.9, k)
            np.testing.assert_allclose(corrected, value, atol=1e-12)

    def test_first_step_returns_input(self):
        out = decaying_step(0.0, np.array([5.0]), beta2=0.3, k=1)
        np.testing.assert_allclose(out, [5.0])

    def test_two_step_scalar(self):
        # beta2=0.5, D1=0, D2=4: S2 = 0.5*S1 + 0.5*4 = 2, corrected = 2/0.75
        # (equals the weight-oracle value: (1/3)*0 + (2/3)*4)
        c1 = decaying_step(0.0, 0.0, beta2=0.5, k=1)
        c2 = decaying_step(c1, 4.0, beta2=0.5, k=2)
        weights = ema_weights(0.5, 2)
        assert c2 == pytest.approx(weights[0] * 0.0 + weights[1] * 4.0)
        assert c2 == pytest.approx(8.0 / 3.0)

    @given(beta2=st.floats(0.05, 0.995), k=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_matches_weight_oracle(self, beta2, k):
        rng = np.random.default_rng(7)
        ds = rng.standard_normal(k)
        corrected = 0.0
        for j in range(1, k + 1):
            corrected = decaying_step(corrected, ds[j - 1], beta2, j)
        weights = ema_weights(beta2, k)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert corrected == pytest.approx(float(weights @ ds), rel=1e-9, abs=1e-9)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            decaying_step(0.0, 1.0, beta2=1.0, k=1)

    @pytest.mark.parametrize("decay", [0.05, 0.5, 0.9, 0.999])
    def test_matches_the_accumulator(self, decay):
        # the averaging states' lazily corrected EMA and the closed-form step
        # are two definitions of one average
        rng = np.random.default_rng(11)
        acc = _Accumulator(decay)
        corrected = 0.0
        for k in range(1, 51):
            d_new = rng.standard_normal(5)
            acc.update(d_new)
            corrected = decaying_step(corrected, d_new, decay, k)
            np.testing.assert_allclose(acc.value(), corrected, rtol=1e-12, atol=0)

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
