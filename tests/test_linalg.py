import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from hessavg import linalg
from hessavg.averaging import FullAverageState
from hessavg.linalg import (
    NotPositiveDefiniteError,
    check_symmetric,
    matrix_abs,
    pd_modify,
    spd_solve,
    sym_eig,
    weighted_norm_sq,
)


def random_symmetric(rng, d, scale=1.0):
    m = rng.standard_normal((d, d)) * scale
    return 0.5 * (m + m.T)


def random_spd(rng, d, shift=0.5):
    m = rng.standard_normal((d, d))
    return m @ m.T + shift * np.eye(d)


class TestSymEig:
    def test_identity(self):
        vals, vecs = sym_eig(np.eye(3))
        np.testing.assert_allclose(vals, np.ones(3))

    def test_diagonal_sorted_ascending(self):
        vals, _ = sym_eig(np.diag([2.0, -3.0]))
        np.testing.assert_allclose(vals, [-3.0, 2.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = random_symmetric(rng, 5)
            vals, vecs = sym_eig(a)
            recon = (vecs * vals) @ vecs.T
            assert np.max(np.abs(recon - a)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) <= 1e-10
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_nonfinite(self):
        a = np.eye(2)
        a[0, 1] = np.nan
        a[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig(a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))


class TestMatrixAbs:
    def test_diagonal(self):
        np.testing.assert_allclose(matrix_abs(np.diag([2.0, -3.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 6)
        np.testing.assert_allclose(matrix_abs(a), a, atol=1e-9 * np.max(np.abs(a)))

    def test_swap_matrix(self):
        # eigenvalues +-1 with eigenvectors (1, +-1)/sqrt(2), so |A| = I
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals = np.array([-1.0, 1.0])
        vecs = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
        expected = (vecs * np.abs(vals)) @ vecs.T
        np.testing.assert_allclose(expected, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(matrix_abs(a), np.eye(2), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = random_symmetric(rng, 7)
            first = matrix_abs(a)
            np.testing.assert_allclose(matrix_abs(first), first, atol=1e-10)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 6)
        b = matrix_abs(a)
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-9)


class TestPdModify:
    def test_already_pd_untouched(self):
        out, shifted = pd_modify(2.0 * np.eye(3), 1.0)
        assert not shifted
        np.testing.assert_allclose(out, 2.0 * np.eye(3), atol=1e-12)

    def test_shift_small_positive(self):
        out, shifted = pd_modify(np.diag([0.5, 3.0]), 1.0)
        assert shifted
        np.testing.assert_allclose(out, np.diag([1.0, 3.5]), atol=1e-12)

    def test_shift_negative_eigenvalue(self):
        out, shifted = pd_modify(np.diag([-0.2, 2.0]), 0.5)
        assert shifted
        np.testing.assert_allclose(out, np.diag([0.5, 2.3]), atol=1e-12)

    def test_floor_invariant_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = rng.integers(2, 9)
            a = random_symmetric(rng, d, scale=rng.uniform(0.1, 5.0))
            mu = float(rng.uniform(1e-4, 2.0))
            out, shifted = pd_modify(a, mu)
            lam_min_out = np.linalg.eigvalsh(out)[0]
            assert lam_min_out >= mu - 1e-9
            lam_min_abs = np.min(np.abs(np.linalg.eigvalsh(a)))
            assert shifted == (lam_min_abs < mu)
            if not shifted:
                np.testing.assert_allclose(out, matrix_abs(a), atol=1e-9)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            pd_modify(np.eye(2), 0.0)


def eigen_rebuild(h_hat, mu_tilde):
    """Reference for pd_modify: |H| rebuilt from the full eigenpairs,
    shifted up to the floor if needed."""
    vals, vecs = np.linalg.eigh(check_symmetric(h_hat))
    abs_vals = np.abs(vals)
    if abs_vals.min() < mu_tilde:
        abs_vals = abs_vals + (mu_tilde - abs_vals.min())
    out = (vecs * abs_vals) @ vecs.T
    return 0.5 * (out + out.T)


# |lambda| / mu_tilde, kept 1e-6 away from 1 so that eigensolver rounding
# cannot move an eigenvalue across the floor.
ABOVE = st.floats(1.0 + 1e-6, 1e3)
BELOW = st.floats(1e-3, 1.0 - 1e-6)
SIGNED = (ABOVE | BELOW).flatmap(lambda r: st.sampled_from([r, -r]))


@st.composite
def spectra(draw):
    """(mu_tilde, eigenvalues, orthogonal seed): spectra above the floor,
    straddling it with all eigenvalues positive, or indefinite."""
    d = draw(st.integers(2, 8))
    mu = draw(st.floats(1e-3, 1.0))
    kind = draw(st.sampled_from(["above", "straddling", "indefinite"]))
    if kind == "above":
        ratios = draw(st.lists(ABOVE, min_size=d, max_size=d))
    elif kind == "straddling":
        ratios = [draw(BELOW), draw(ABOVE)] + draw(st.lists(ABOVE | BELOW, min_size=d - 2, max_size=d - 2))
    else:
        ratios = [-draw(ABOVE | BELOW)] + draw(st.lists(SIGNED, min_size=d - 1, max_size=d - 1))
    return mu, mu * np.array(ratios), draw(st.integers(0, 2**32 - 1))


def rotated(vals, seed):
    """``Q diag(vals) Q^T`` for a random orthogonal ``Q``, as multiplied out:
    its two triangles can differ in their last bits."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((vals.size, vals.size)))
    return (q * vals) @ q.T


def from_spectrum(vals, seed):
    h = rotated(vals, seed)
    return 0.5 * (h + h.T)


@st.composite
def smallest_eig_cases(draw):
    """(eigenvalues, orthogonal seed) for d = 1..40: a spread spectrum,
    one value repeated, a negative-definite one, or one straddling a floor
    with eigenvalues a relative 1e-9 either side of it."""
    d = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["spread", "repeated", "negative_definite", "straddling"]))
    scale = draw(st.floats(1e-6, 1e6))
    mags = st.floats(1e-3, 1e3)
    if kind == "spread":
        ratios = draw(st.lists(mags.flatmap(lambda r: st.sampled_from([r, -r])), min_size=d, max_size=d))
    elif kind == "repeated":
        cut = draw(st.integers(0, d - 1))
        ratios = [draw(mags)] * cut + [draw(mags)] * (d - cut)
    elif kind == "negative_definite":
        ratios = [-r for r in draw(st.lists(mags, min_size=d, max_size=d))]
    else:
        ratios = [draw(st.sampled_from([1.0 - 1e-9, 1.0, 1.0 + 1e-9])) for _ in range(d)]
    return scale * np.array(ratios), draw(st.integers(0, 2**32 - 1))


class TestSmallestEigenvalue:
    @given(smallest_eig_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_eigvalsh(self, case):
        vals, seed = case
        a = from_spectrum(vals, seed)
        smallest, vecs = sym_eig(a, vectors=False)
        assert vecs is None and smallest.shape == (1,)
        assert abs(smallest[0] - np.linalg.eigvalsh(a)[0]) <= 1e-12 * np.linalg.norm(a, 2)

    def test_does_not_touch_input(self):
        a = random_symmetric(np.random.default_rng(7), 6)
        before = a.copy()
        sym_eig(a, vectors=False)
        assert np.array_equal(a, before)


class TestPdFloorProperties:
    @given(spectra())
    @settings(max_examples=300, deadline=None)
    def test_floor_invariants(self, case):
        mu, vals, seed = case
        h_hat = from_spectrum(vals, seed)
        out, shifted = pd_modify(h_hat, mu)
        assert shifted == (np.abs(vals).min() < mu)
        if vals.min() >= mu:
            # fast path: the symmetrized input itself, in a fresh array
            assert out.tobytes() == check_symmetric(h_hat).tobytes()
            assert not np.shares_memory(out, h_hat)
        norm = np.abs(vals).max()
        assert np.max(np.abs(out - eigen_rebuild(h_hat, mu))) <= 1e-10 * norm
        assert np.linalg.eigvalsh(out)[0] >= mu * (1 - 1e-10)

    @given(st.integers(1, 6).flatmap(
        lambda d: st.lists(st.floats(-1e300, 1e300), min_size=d * d, max_size=d * d).map(
            lambda xs: np.array(xs).reshape(d, d))))
    @settings(max_examples=200, deadline=None)
    def test_check_symmetric_returns_a_symmetric_input_itself(self, m):
        a = np.triu(m) + np.triu(m, 1).T
        assert check_symmetric(a) is a


def nudged(a, i, j):
    """``a`` with ``A[i, j]`` one ulp larger, so that only that pair differs."""
    out = a.copy()
    out[i, j] = np.nextafter(out[i, j], np.inf)
    return out


ENTRY_POINTS = {
    "sym_eig": sym_eig,
    "sym_eig values": lambda h: sym_eig(h, vectors=False),
    "pd_modify": lambda h: pd_modify(h, 1e-3),
    "spd_solve": lambda h: spd_solve(h, np.ones(len(h))),
    "weighted_norm_sq": lambda h: weighted_norm_sq(np.ones(len(h)), inverse_of=h),
}


def refused_pair(i, j):
    i, j = min(i, j), max(i, j)
    return rf"matrix is not symmetric: \|A\[{i},{j}\] - A\[{j},{i}\]\| = "


class TestExactSymmetry:
    """A matrix is taken only when it equals its transpose bit for bit; any
    other is refused, naming the pair with the largest gap, not repaired."""

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    @pytest.mark.parametrize("i, j", [(0, 1), (3, 1), (0, 4)])
    def test_one_ulp_off_is_refused(self, call, i, j):
        h = random_spd(np.random.default_rng(11), 5)
        call(h)
        with pytest.raises(ValueError, match=refused_pair(i, j)):
            call(nudged(h, i, j))

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_an_unsymmetrized_rebuild_is_refused(self, call):
        # from_spectrum's matrix before it is symmetrized
        h = rotated(np.geomspace(1e-3, 1e3, 6), 0)
        gap = np.abs(h - h.T)
        assert gap.max() > 0
        with pytest.raises(ValueError, match=refused_pair(*np.unravel_index(np.argmax(gap), gap.shape))):
            call(h)

    @pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
    def test_a_gap_past_the_float_limit_is_refused(self, call):
        # finite mirrored entries whose difference overflows: the refusal,
        # not an overflow warning, which the test config makes an error
        with pytest.raises(ValueError, match=refused_pair(0, 1) + "inf"):
            call(np.array([[0.0, 1.5e308], [-1.5e308, 0.0]]))

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_gap_is_refused(self, d, seed, data):
        a = random_symmetric(np.random.default_rng(seed), d, scale=10.0)
        i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        a[i, j] = data.draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != a[j, i]))
        with pytest.raises(ValueError, match=refused_pair(i, j)):
            check_symmetric(a)


class TestValidationCount:
    """Each entry point validates its matrix once: pd_modify through its
    first eigensolve, and spd_solve again, since it is an entry of its own."""

    @pytest.fixture
    def checks(self, monkeypatch):
        seen = []
        original = linalg.check_symmetric

        def spy(a):
            seen.append(a)
            return original(a)

        monkeypatch.setattr(linalg, "check_symmetric", spy)
        return seen

    def test_above_floor_once(self, checks):
        pd_modify(random_spd(np.random.default_rng(6), 5, shift=1.0), 1e-3)
        assert len(checks) == 1

    def test_shift_path_twice(self, checks):
        pd_modify(np.diag([-1.0, 2.0, 3.0]), 1e-3)
        assert len(checks) == 2

    def test_precondition_twice_per_call(self, checks):
        rng = np.random.default_rng(12)
        state = FullAverageState(5)
        state.update(random_spd(rng, 5, shift=1.0))
        for calls in (1, 2, 3):
            state.precondition(rng.standard_normal(5), 1e-3)
            assert len(checks) == 2 * calls


class TestEigensolveCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = linalg.sym_eig

        def spy(a, vectors=True):
            seen.append(vectors)
            return original(a, vectors)

        monkeypatch.setattr(linalg, "sym_eig", spy)
        return seen

    def test_above_floor_values_only(self, calls):
        pd_modify(random_spd(np.random.default_rng(6), 5, shift=1.0), 1e-3)
        assert calls == [False]

    def test_indefinite_values_then_vectors(self, calls):
        pd_modify(np.diag([-1.0, 2.0, 3.0]), 1e-3)
        assert calls == [False, True]

    def test_matrix_abs_one_full_solve(self, calls):
        matrix_abs(np.diag([-1.0, 2.0]))
        assert calls == [True]

    def test_values_only_decomposition(self):
        vals, vecs = sym_eig(np.diag([3.0, -1.0]), vectors=False)
        np.testing.assert_allclose(vals, [-1.0])
        assert vecs is None


class TestSpdSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(spd_solve(np.eye(3), b), b)

    def test_diagonal(self):
        np.testing.assert_allclose(spd_solve(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_residual_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_spd(rng, 8)
            g = rng.standard_normal(8)
            x = spd_solve(h, g)
            assert np.linalg.norm(h @ x - g) <= 1e-8 * np.linalg.norm(g)

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        h = random_spd(rng, 10)
        v = rng.standard_normal(10)
        out = spd_solve(h, h @ v)
        assert np.linalg.norm(out - v) <= 1e-8 * np.linalg.norm(v)

    def test_multiple_rhs(self):
        rng = np.random.default_rng(7)
        h = random_spd(rng, 6)
        b = rng.standard_normal((6, 3))
        x = spd_solve(h, b)
        assert np.max(np.abs(h @ x - b)) <= 1e-8

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))

    @pytest.mark.parametrize("d", [1, 3, 50, 200, 500])
    @pytest.mark.parametrize("n_rhs", [None, 4])
    def test_bitwise_scipy_cho_solve_of_numpys_cholesky(self, d, n_rhs):
        # numpy's dpotrf, the one spd_solve calls: scipy links an older
        # OpenBLAS, whose factor differed in its last bits at d=200 on one
        # BLAS thread; its dpotrs, given the same factor, does not
        rng = np.random.default_rng(d)
        h = random_spd(rng, d)
        g = rng.standard_normal(d if n_rhs is None else (d, n_rhs))
        h_in, g_in = h.copy(), g.copy()
        ref = cho_solve((np.linalg.cholesky(h), True), g, check_finite=False)
        x = spd_solve(h, g)
        assert x.shape == g.shape
        assert np.array_equal(x, ref)
        assert np.array_equal(h, h_in) and np.array_equal(g, g_in)

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 2, 2), ()])
    def test_rejects_a_right_hand_side_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="right-hand side"):
            spd_solve(np.eye(3), np.ones(shape))


def layouts(a):
    """``a`` as C-ordered, F-ordered, a transposed view and a strided slice;
    the transpose of a vector is the vector."""
    strided = np.zeros(tuple(2 * n for n in a.shape), dtype=a.dtype)
    view = strided[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "T": np.ascontiguousarray(a.T).T, "strided": view}


class TestEmptyMatrix:
    @pytest.mark.parametrize("call", [
        lambda h: sym_eig(h, vectors=False),
        lambda h: pd_modify(h, 1e-3),
        lambda h: spd_solve(h, np.zeros(0)),
    ], ids=["sym_eig", "pd_modify", "spd_solve"])
    def test_refused_with_its_shape(self, call):
        # LAPACK's argument checks rejected it, from scipy as an f2py error
        with pytest.raises(ValueError, match=r"non-empty square matrix, got shape \(0, 0\)"):
            call(np.zeros((0, 0)))


class TestLapackBinding:
    @pytest.mark.parametrize("d", [1, 5, 40])
    @pytest.mark.parametrize("n_rhs", [None, 1, 4])
    def test_the_same_bits_from_every_layout(self, d, n_rhs):
        rng = np.random.default_rng(10 + d)
        h = random_spd(rng, d)
        g = rng.integers(-9, 10, d if n_rhs is None else (d, n_rhs))
        x_ref = spd_solve(h, g.astype(float))
        eig_ref = sym_eig(h, vectors=False).eigenvalues
        assert x_ref.shape == g.shape
        for h_name, h_in in layouts(h).items():
            h_before = h_in.copy()
            assert sym_eig(h_in, vectors=False).eigenvalues.tobytes() == eig_ref.tobytes(), h_name
            for g_name, g_in in layouts(g).items():
                g_before = g_in.copy()
                x = spd_solve(h_in, g_in)
                assert x.shape == g.shape and np.array_equal(x, x_ref), (h_name, g_name)
                assert np.array_equal(g_in, g_before)
            assert np.array_equal(h_in, h_before)

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 300])
    def test_the_factor_is_numpys_cholesky(self, d):
        h = random_spd(np.random.default_rng(d), d)
        factor, info = linalg._lapack().dpotrf(h)
        assert info == 0
        assert np.array_equal(np.tril(factor), np.linalg.cholesky(h))
        # the strict upper triangle is left as it was
        assert np.array_equal(np.triu(factor, 1), np.triu(h, 1))

    @pytest.mark.parametrize("minor", [1, 3, 6])
    def test_a_failed_factorization_names_its_minor(self, minor):
        diag = np.ones(6)
        diag[minor - 1] = -1.0
        assert linalg._lapack().dpotrf(np.diag(diag))[1] == minor
        with pytest.raises(NotPositiveDefiniteError, match=f"leading minor {minor};"):
            spd_solve(np.diag(diag), np.ones(6))

    def test_a_missing_routine_is_named(self):
        with pytest.raises(ImportError, match="scipy_dsyevr_64_"):
            linalg._Lapack(SimpleNamespace())

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
    def test_the_first_call_maps_no_new_library(self):
        script = """
import json
import numpy as np
from hessavg import linalg

def mapped():
    with open("/proc/self/maps") as fh:
        return {line.split(maxsplit=5)[5].strip() for line in fh if len(line.split(maxsplit=5)) == 6}

before = mapped()
linalg.spd_solve(np.eye(3), np.ones(3))
linalg.sym_eig(np.eye(3), vectors=False)
print(json.dumps(sorted(mapped() - before)))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert [path for path in json.loads(done.stdout) if ".so" in path] == []


class TestWeightedNorm:
    def test_identity_is_euclidean(self):
        assert weighted_norm_sq(np.array([1.0, 0.0])) == 1.0
        v = np.array([3.0, -4.0, 1.0])
        assert weighted_norm_sq(v) == float(v @ v)

    def test_diagonal_inverse(self):
        val = weighted_norm_sq(np.array([1.0, 1.0]), inverse_of=np.diag([2.0, 4.0]))
        assert val == pytest.approx(0.75, abs=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = random_spd(rng, 7)
            v = rng.standard_normal(7)
            expected = float(v @ np.linalg.inv(h) @ v)
            assert weighted_norm_sq(v, inverse_of=h) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        h = random_spd(rng, 5)
        for _ in range(20):
            assert weighted_norm_sq(rng.standard_normal(5), inverse_of=h) >= 0.0
