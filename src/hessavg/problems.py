"""Finite-sum problem oracles.

Three problems share one oracle interface: a masked quadratic (an
expectation problem where each "component" is a fresh random mask draw),
l2-regularized logistic regression over a dataset, and a small synthetic
strongly convex finite sum used as a convergence-rate testbed.

All oracles are immutable after construction, apart from the optimum,
which is computed on the first :meth:`~FiniteSumOracle.optimum` call and
cached. Anything random (mask draws, batch index draws) is driven by an
explicit ``numpy.random.Generator`` passed by the caller, so concurrent
evaluation with independent streams is safe.

Full passes read the stored per-component arrays in place, never a gathered
copy of all rows, and give the same floating-point results as the
subsampled methods over every component. When a caller needs the full
gradient anyway, :meth:`~FiniteSumOracle.loss_grad_sub_full` may read the
batch loss and gradient out of that one full pass instead of gathering the
batch rows a second time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.special import expit

from .linalg import spd_solve

__all__ = [
    "ProblemConstants",
    "FiniteSumOracle",
    "MaskSample",
    "QuadraticProblem",
    "quadratic_generate",
    "default_spectrum",
    "LogisticProblem",
    "SyntheticSumProblem",
    "make_synthetic_logistic",
    "estimate_constants",
]


@dataclass
class ProblemConstants:
    """Empirical or user-supplied problem constants.

    These are estimates used to drive sample-size rules and step-size
    caps; none of them is a certified bound unless a caller supplies one.
    ``mu_tilde`` is the positive-definiteness floor handed to the
    optimizer, constrained to ``mu / 2`` when ``mu`` is known.
    """

    mu: Optional[float] = None
    L: Optional[float] = None
    M: Optional[float] = None
    mu_tilde: Optional[float] = None
    sigma1_g: float = 0.0
    sigma2_g: float = 0.0
    beta1_g: float = 0.0
    beta2_g: float = 0.0
    beta1_H: float = 0.0
    beta2_H: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma1_g", "sigma2_g", "beta1_g", "beta2_g", "beta1_H", "beta2_H"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.mu is not None and self.mu_tilde is not None and self.mu_tilde > self.mu / 2:
            raise ValueError(
                f"mu_tilde={self.mu_tilde} exceeds mu/2={self.mu / 2}; "
                "the local theory requires mu_tilde <= mu/2"
            )


class FiniteSumOracle(ABC):
    """Uniform interface over finite-sum / expectation problems.

    A *sample* is whatever :meth:`draw_sample` returns: an index array for
    finite-sum problems, a :class:`MaskSample` for the masked quadratic.
    ``n_components`` is ``None`` for expectation problems, where sampling
    is unbounded.
    """

    n_components: Optional[int]
    dim: int

    @abstractmethod
    def loss_full(self, w: NDArray) -> float: ...

    @abstractmethod
    def grad_full(self, w: NDArray) -> NDArray: ...

    @abstractmethod
    def loss_sub(self, w: NDArray, sample) -> float: ...

    @abstractmethod
    def grad_sub(self, w: NDArray, sample) -> NDArray: ...

    def loss_grad_sub(self, w: NDArray, sample) -> tuple[float, NDArray]:
        """Batch loss and gradient at ``w`` over ``sample``, in one call.

        Equal bit for bit to ``(loss_sub(w, sample), grad_sub(w, sample))``.
        Oracles override it to compute the work the two values share
        (margins, residuals, ``H_i w``) once.
        """
        return self.loss_sub(w, sample), self.grad_sub(w, sample)

    def loss_grad_sub_full(self, w: NDArray, sample) -> tuple[float, NDArray, NDArray]:
        """Batch loss, batch gradient and full gradient at ``w``.

        Equal bit for bit to ``(*loss_grad_sub(w, sample), grad_full(w))``.
        An oracle whose per-component terms round the same whether computed
        over all components or over a gathered batch overrides it to read
        the batch out of the one full pass. ``LogisticProblem`` keeps this
        default: its margins from the full ``X @ w`` can differ in the last
        bits from those of the gathered ``X[sample] @ w``.
        """
        return (*self.loss_grad_sub(w, sample), self.grad_full(w))

    @abstractmethod
    def component_grads(self, w: NDArray, sample) -> NDArray:
        """Per-component gradients for ``sample``, stacked as rows."""

    @abstractmethod
    def hvp_sub(self, w: NDArray, sample, v: NDArray) -> NDArray:
        """Subsampled Hessian applied to ``v`` (a vector or stacked columns)."""

    @abstractmethod
    def draw_sample(self, rng: np.random.Generator, size: int): ...

    def hessian_sub(self, w: NDArray, sample) -> NDArray:
        """Dense subsampled Hessian, assembled from Hessian-vector products."""
        h = self.hvp_sub(w, sample, np.eye(self.dim))
        return 0.5 * (h + h.T)

    def hessian_full(self, w: NDArray) -> NDArray:
        """Dense full Hessian; intended for oracle checks at small ``dim``."""
        raise NotImplementedError

    def optimum(self) -> Optional[tuple[NDArray, float]]:
        """Known minimizer and optimal value, when available."""
        return None


def _check_indices(sample, n: int) -> NDArray:
    """``sample`` as an index array into ``range(n)``.

    Rejects an empty sample and any index outside ``[0, n)``, which fancy
    indexing would otherwise wrap (``-1``) or turn into a ``nan`` mean.
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise ValueError("empty sample")
    if sample.min() < 0 or sample.max() >= n:
        raise ValueError("sample indices out of range")
    return sample


# ---------------------------------------------------------------------------
# Masked quadratic (expectation problem)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaskSample:
    """A batch of independent mask draws for the quadratic problem.

    ``a_keep[j]`` masks rows of ``A`` and ``b_keep[j]`` masks entries of
    ``b`` for draw ``j``; both are boolean arrays of shape ``(m, d)``.
    """

    a_keep: NDArray
    b_keep: NDArray

    @property
    def size(self) -> int:
        return self.a_keep.shape[0]


def default_spectrum(i: NDArray) -> NDArray:
    """Eigenvalue profile 1e-4 + (0.1 i)^{3/2} for i = 1..d."""
    return 1e-4 + (0.1 * i) ** 1.5


class QuadraticProblem(FiniteSumOracle):
    """Least squares with randomly zeroed rows of ``A`` and entries of ``b``.

    The objective is the expectation of ``||P_A A w - P_b b||^2`` over
    independent entrywise Bernoulli(keep_prob) masks ``P_A`` (acting on
    rows of ``A``) and ``P_b`` (acting on entries of ``b``). Because the
    masks are independent with mean ``p = keep_prob``, the expected loss is

        f(w) = p ||A w||^2 - 2 p^2 (A w) . b + p ||b||^2,

    whose minimizer is ``w* = p A^{-1} b``. One "component" of the finite
    sum is one i.i.d. mask draw, so the component count is unbounded.
    """

    def __init__(self, a: NDArray, b: NDArray, keep_prob: float = 0.5):
        if not 0 < keep_prob <= 1:
            raise ValueError(f"keep_prob must lie in (0, 1], got {keep_prob}")
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.keep_prob = float(keep_prob)
        self.dim = self.a.shape[0]
        self.n_components = None
        # Row norms of A^2 enter the closed-form gradient noise.
        self._a_sq_diag = np.einsum("ij,ij->i", self.a, self.a)
        self._optimum: Optional[tuple[NDArray, float]] = None

    # -- sampling ----------------------------------------------------------

    def draw_sample(self, rng: np.random.Generator, size: int) -> MaskSample:
        p = self.keep_prob
        if p >= 1.0:
            keep = np.ones((size, self.dim), dtype=bool)
            return MaskSample(keep, keep.copy())
        a_keep = rng.random((size, self.dim)) < p
        b_keep = rng.random((size, self.dim)) < p
        return MaskSample(a_keep, b_keep)

    # -- subsampled oracle ---------------------------------------------------

    def _residuals(self, w: NDArray, sample: MaskSample) -> NDArray:
        aw = self.a @ w
        return sample.a_keep * aw - sample.b_keep * self.b

    @staticmethod
    def _loss_of(r: NDArray) -> float:
        return float(np.mean(np.sum(r * r, axis=1)))

    def _grad_of(self, r: NDArray, sample: MaskSample) -> NDArray:
        return (2.0 / sample.size) * self.a.T @ np.einsum("mi,mi->i", sample.a_keep, r)

    def loss_sub(self, w: NDArray, sample: MaskSample) -> float:
        return self._loss_of(self._residuals(w, sample))

    def component_grads(self, w: NDArray, sample: MaskSample) -> NDArray:
        r = self._residuals(w, sample)
        return 2.0 * (sample.a_keep * r) @ self.a

    def grad_sub(self, w: NDArray, sample: MaskSample) -> NDArray:
        return self._grad_of(self._residuals(w, sample), sample)

    def loss_grad_sub(self, w: NDArray, sample: MaskSample) -> tuple[float, NDArray]:
        r = self._residuals(w, sample)
        return self._loss_of(r), self._grad_of(r, sample)

    def hvp_sub(self, w: NDArray, sample: MaskSample, v: NDArray) -> NDArray:
        mean_keep = np.mean(sample.a_keep, axis=0)
        av = self.a @ v
        if av.ndim == 1:
            return 2.0 * self.a.T @ (mean_keep * av)
        return 2.0 * self.a.T @ (mean_keep[:, None] * av)

    def hessian_sub(self, w: NDArray, sample: MaskSample) -> NDArray:
        mean_keep = np.mean(sample.a_keep, axis=0)
        h = 2.0 * self.a.T @ (mean_keep[:, None] * self.a)
        return 0.5 * (h + h.T)

    # -- expectation oracle ---------------------------------------------------

    def loss_full(self, w: NDArray) -> float:
        p = self.keep_prob
        aw = self.a @ w
        return float(p * aw @ aw - 2 * p * p * aw @ self.b + p * self.b @ self.b)

    def grad_full(self, w: NDArray) -> NDArray:
        p = self.keep_prob
        return 2.0 * self.a.T @ (p * (self.a @ w) - p * p * self.b)

    def hessian_full(self, w: NDArray) -> NDArray:
        return 2.0 * self.keep_prob * self.a.T @ self.a

    def optimum(self) -> tuple[NDArray, float]:
        if self._optimum is None:
            w_star = self.keep_prob * np.linalg.solve(self.a, self.b)
            w_star.flags.writeable = False
            self._optimum = (w_star, self.loss_full(w_star))
        return self._optimum

    def grad_noise_second_moment(self, w: NDArray) -> float:
        """Closed-form ``E ||grad_one_draw - grad_full||^2`` at ``w``.

        Per coordinate the mask residual ``y_i = (m_i - p) u_i -
        (m_i m'_i - p^2) v_i`` (with ``u = A w``, ``v = b``) has
        independent entries, which reduces the second moment to a sum over
        the diagonal of ``A^2``.
        """
        p = self.keep_prob
        u = self.a @ w
        v = self.b
        ey2 = (
            p * (1 - p) * u * u
            - 2 * p * p * (1 - p) * u * v
            + p * p * (1 - p * p) * v * v
        )
        return float(4.0 * self._a_sq_diag @ ey2)


def quadratic_generate(
    d: int,
    spectrum=default_spectrum,
    keep_prob: float = 0.5,
    seed: int = 0,
) -> QuadraticProblem:
    """Build a seeded masked quadratic with the given eigenvalue profile.

    ``A`` is a random orthogonal conjugation of ``diag(spectrum(1..d))``
    (via QR of a Gaussian matrix with sign-normalized R) and ``b`` is
    standard normal. Identical seeds reproduce ``(A, b)`` bit for bit.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    lam = np.asarray(spectrum(np.arange(1, d + 1)), dtype=float)
    if np.any(lam <= 0):
        raise ValueError("spectrum must be strictly positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(d)
    return QuadraticProblem(a, b, keep_prob)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


class LogisticProblem(FiniteSumOracle):
    """l2-regularized logistic regression over dense features.

    Component ``i`` is ``log(1 + exp(-y_i w.x_i)) + ||w||^2 / (2n)``; the
    full objective is their mean. Labels must be +-1. The regularizer
    makes every subsampled Hessian at least ``I / n``, so ``mu = 1/n``.
    """

    def __init__(self, x: NDArray, y: NDArray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (n, d) with matching labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if x.shape[0] == 0:
            raise ValueError("empty dataset")
        # C order, so the in-place full passes see the same layout as a
        # gathered batch and round identically.
        self.x = np.ascontiguousarray(x)
        self.y = y
        self.n = x.shape[0]
        self.dim = x.shape[1]
        self.n_components = self.n

    def draw_sample(self, rng: np.random.Generator, size: int) -> NDArray:
        if not 1 <= size <= self.n:
            raise ValueError(f"sample size {size} out of range [1, {self.n}]")
        return rng.choice(self.n, size=size, replace=False)

    def _margins(self, w: NDArray, sample: Optional[NDArray]) -> tuple[NDArray, NDArray, NDArray]:
        """Rows, labels and margins ``y_i x_i.w``; ``None`` reads every row in place."""
        if sample is None:
            xs, ys = self.x, self.y
        else:
            sample = _check_indices(sample, self.n)
            xs, ys = self.x[sample], self.y[sample]
        return xs, ys, ys * (xs @ w)

    def _loss_of(self, w: NDArray, z: NDArray) -> float:
        # log(1 + exp(-z)) evaluated stably for large |z|
        return float(np.mean(np.logaddexp(0.0, -z)) + (w @ w) / (2 * self.n))

    def _grad_of(self, w: NDArray, xs: NDArray, ys: NDArray, z: NDArray) -> NDArray:
        coeff = -ys * (1.0 - expit(z))
        return (coeff @ xs) / ys.size + w / self.n

    def loss_sub(self, w: NDArray, sample: NDArray) -> float:
        return self._loss_of(w, self._margins(w, sample)[2])

    def grad_sub(self, w: NDArray, sample: NDArray) -> NDArray:
        return self._grad_of(w, *self._margins(w, sample))

    def loss_grad_sub(self, w: NDArray, sample: NDArray) -> tuple[float, NDArray]:
        xs, ys, z = self._margins(w, sample)
        return self._loss_of(w, z), self._grad_of(w, xs, ys, z)

    def component_grads(self, w: NDArray, sample: NDArray) -> NDArray:
        xs, ys, z = self._margins(w, sample)
        coeff = -ys * (1.0 - expit(z))
        return coeff[:, None] * xs + w / self.n

    def hvp_sub(self, w: NDArray, sample: NDArray, v: NDArray) -> NDArray:
        xs, ys, z = self._margins(w, sample)
        s = expit(z)
        weight = s * (1.0 - s)
        xv = xs @ v
        if xv.ndim == 1:
            return xs.T @ (weight * xv) / ys.size + v / self.n
        return xs.T @ (weight[:, None] * xv) / ys.size + v / self.n

    def loss_full(self, w: NDArray) -> float:
        return self._loss_of(w, self._margins(w, None)[2])

    def grad_full(self, w: NDArray) -> NDArray:
        return self._grad_of(w, *self._margins(w, None))

    def hessian_full(self, w: NDArray) -> NDArray:
        return self.hessian_sub(w, np.arange(self.n))

    def constants(self) -> ProblemConstants:
        """Cheap analytic bounds: mu = 1/n and L <= max ||x||^2 / 4 + 1/n."""
        l_bound = float(np.max(np.einsum("ij,ij->i", self.x, self.x)) / 4 + 1 / self.n)
        return ProblemConstants(mu=1.0 / self.n, L=l_bound, mu_tilde=1.0 / (2 * self.n))


def make_synthetic_logistic(
    n: int = 400, d: int = 12, seed: int = 0, noise: float = 0.4
) -> tuple[NDArray, NDArray]:
    """Generate a linearly separable-ish logistic dataset for offline tests."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    logits = x @ w_true + noise * rng.standard_normal(n)
    y = np.where(logits >= 0, 1.0, -1.0)
    return x, y


# ---------------------------------------------------------------------------
# Synthetic strongly convex finite-sum testbed
# ---------------------------------------------------------------------------


class SyntheticSumProblem(FiniteSumOracle):
    """Mean of N strongly convex components with distinct Hessians.

    Component ``i`` is ``0.5 w^T H_i w - b_i^T w`` plus, when
    ``curvature > 0``, a smooth convex ripple term

        (curvature / freq^2) * mean_j log(cosh(freq * a_ij.w + phase_ij)).

    With ``curvature = 0`` every component Hessian is the constant matrix
    ``H_i``, which makes cyclic-sampling cancellation exact and lets a
    Newton step land on the optimum as soon as the running average
    completes a cycle. The ripple term gives the Hessians a Lipschitz
    dependence on ``w`` (with Lipschitz constant growing like
    ``curvature * freq``) while its gradient contribution stays bounded by
    ``curvature / freq``, so convergence rates can be observed over many
    iterations instead of collapsing within one sampling cycle.
    """

    def __init__(
        self,
        h: NDArray,
        b: NDArray,
        a: Optional[NDArray] = None,
        curvature: float = 0.0,
        freq: float = 10.0,
        phases: Optional[NDArray] = None,
    ):
        # C order, as for LogisticProblem.x: full passes read these in place.
        self.h = np.ascontiguousarray(h, dtype=float)  # (N, d, d)
        self.b = np.ascontiguousarray(b, dtype=float)  # (N, d)
        self.n_components = self.h.shape[0]
        self.dim = self.h.shape[1]
        self.curvature = float(curvature)
        self.freq = float(freq)
        if curvature > 0:
            if a is None:
                raise ValueError("curvature > 0 requires ripple directions")
            self.a_dirs = np.ascontiguousarray(a, dtype=float)  # (N, J, d)
            if self.a_dirs.ndim != 3:
                raise ValueError("ripple directions must have shape (N, J, d)")
            self.phases = (
                np.zeros(self.a_dirs.shape[:2]) if phases is None else np.asarray(phases, dtype=float)
            )
        else:
            self.a_dirs = np.zeros((self.n_components, 1, self.dim))
            self.phases = np.zeros((self.n_components, 1))
        self._h_mean = self.h.mean(axis=0)
        self._b_mean = self.b.mean(axis=0)
        self._optimum: Optional[tuple[NDArray, float]] = None

    @classmethod
    def generate(
        cls,
        n_components: int = 16,
        d: int = 20,
        seed: int = 0,
        curvature: float = 0.0,
        eig_range: tuple[float, float] = (0.5, 3.0),
        coupling: float = 0.0,
        freq: float = 10.0,
        n_ripples: int = 4,
    ) -> "SyntheticSumProblem":
        """Seeded random instance.

        With ``coupling = 0`` each component Hessian is an independent
        random PD matrix with eigenvalues in ``eig_range``. A positive
        ``coupling`` in (0, 1) instead builds the components as
        ``L^{1/2} (I + G_i) L^{1/2}`` around one shared base with
        log-spaced eigenvalues ``L``: the ``G_i`` are symmetric, bounded
        by ``coupling`` in spectral norm, and sum to zero, so every
        component stays positive definite while the mean Hessian is the
        ill-conditioned base exactly. ``curvature``, ``freq``, and
        ``n_ripples`` control the non-quadratic ripple term.
        """
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

        def random_frame() -> NDArray:
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            return q * np.sign(np.diag(r))

        hs = np.empty((n_components, d, d))
        if coupling > 0:
            if not coupling < 1:
                raise ValueError("coupling must lie in (0, 1)")
            lam = np.geomspace(eig_range[0], eig_range[1], d)
            frame = random_frame()
            gs = rng.standard_normal((n_components, d, d))
            gs = 0.5 * (gs + np.transpose(gs, (0, 2, 1)))
            gs -= gs.mean(axis=0)
            top = max(np.linalg.norm(g, 2) for g in gs)
            gs *= coupling / top
            root = np.sqrt(lam)
            for i in range(n_components):
                inner = (root[:, None] * (np.eye(d) + gs[i])) * root[None, :]
                h = frame @ inner @ frame.T
                hs[i] = 0.5 * (h + h.T)
        else:
            for i in range(n_components):
                q = random_frame()
                m = (q * rng.uniform(*eig_range, size=d)) @ q.T
                hs[i] = 0.5 * (m + m.T)
        b = rng.standard_normal((n_components, d))
        a = rng.standard_normal((n_components, n_ripples, d))
        a /= np.linalg.norm(a, axis=2, keepdims=True)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_components, n_ripples))
        return cls(hs, b, a, curvature, freq=freq, phases=phases)

    def draw_sample(self, rng: np.random.Generator, size: int) -> NDArray:
        if not 1 <= size <= self.n_components:
            raise ValueError(f"sample size {size} out of range [1, {self.n_components}]")
        return rng.choice(self.n_components, size=size, replace=False)

    def _ripple_args(self, w: NDArray, idx: NDArray) -> NDArray:
        return self.freq * (self.a_dirs[idx] @ w) + self.phases[idx]  # (m, J)

    def _terms(self, w: NDArray, sample) -> tuple[NDArray, NDArray, Optional[NDArray], Optional[NDArray]]:
        """``H_i w``, ``b_i``, ripple arguments and ripple directions.

        ``sample=None`` reads all N components in place. The ripple pair is
        ``None`` when ``curvature == 0``.
        """
        if sample is None:
            h, b, a, phases = self.h, self.b, self.a_dirs, self.phases
        else:
            idx = _check_indices(sample, self.n_components)
            h, b, a, phases = self.h[idx], self.b[idx], self.a_dirs[idx], self.phases[idx]
        if self.curvature == 0:
            return h @ w, b, None, None
        return h @ w, b, self.freq * (a @ w) + phases, a

    def _loss_of(self, w: NDArray, terms: tuple) -> float:
        hw, b, t, _ = terms
        val = 0.5 * np.mean(w @ hw.T) - np.mean(b @ w)
        if t is not None:
            # log(cosh(t)) = |t| + log1p(exp(-2|t|)) - log(2), overflow safe
            lc = np.abs(t) + np.log1p(np.exp(-2 * np.abs(t))) - np.log(2.0)
            val += (self.curvature / self.freq**2) * np.mean(lc)
        return float(val)

    def _grads_of(self, terms: tuple) -> NDArray:
        hw, b, t, a = terms
        grads = hw - b
        if t is not None:
            scale = self.curvature / (self.freq * t.shape[1])
            grads = grads + scale * np.einsum("mj,mjd->md", np.tanh(t), a)
        return grads

    def loss_sub(self, w: NDArray, sample) -> float:
        return self._loss_of(w, self._terms(w, sample))

    def component_grads(self, w: NDArray, sample) -> NDArray:
        return self._grads_of(self._terms(w, sample))

    def grad_sub(self, w: NDArray, sample) -> NDArray:
        return self._grads_of(self._terms(w, sample)).mean(axis=0)

    def loss_grad_sub(self, w: NDArray, sample) -> tuple[float, NDArray]:
        terms = self._terms(w, sample)
        return self._loss_of(w, terms), self._grads_of(terms).mean(axis=0)

    def loss_grad_sub_full(self, w: NDArray, sample) -> tuple[float, NDArray, NDArray]:
        # Each row of H w, of the ripple arguments and of the component
        # gradients rounds the same in the full pass as in a gathered
        # batch, so the batch values are those rows, indexed.
        idx = _check_indices(sample, self.n_components)
        terms = self._terms(w, None)
        hw, b, t, _ = terms
        grads = self._grads_of(terms)
        batch = (hw[idx], b[idx], None if t is None else t[idx], None)
        return self._loss_of(w, batch), grads[idx].mean(axis=0), grads.mean(axis=0)

    def hvp_sub(self, w: NDArray, sample, v: NDArray) -> NDArray:
        idx = _check_indices(sample, self.n_components)
        h = self.h[idx].mean(axis=0)
        out = h @ v
        if self.curvature > 0:
            t = self._ripple_args(w, idx)
            with np.errstate(over="ignore"):
                sech2 = 1.0 / np.cosh(t) ** 2  # underflows to 0 for large |t|
            a = self.a_dirs[idx]  # (m, J, d)
            scale = self.curvature / (idx.size * t.shape[1])
            av = np.einsum("mjd,d...->mj...", a, v)
            out = out + scale * np.einsum("mj,mj...,mjd->d...", sech2, av, a)
        return out

    def loss_full(self, w: NDArray) -> float:
        return self._loss_of(w, self._terms(w, None))

    def grad_full(self, w: NDArray) -> NDArray:
        return self._grads_of(self._terms(w, None)).mean(axis=0)

    def hessian_full(self, w: NDArray) -> NDArray:
        return self.hessian_sub(w, np.arange(self.n_components))

    def optimum(self) -> tuple[NDArray, float]:
        if self._optimum is None:
            w = np.linalg.solve(self._h_mean, self._b_mean)
            if self.curvature > 0:
                # Polish with full Newton; the objective is smooth and
                # strongly convex, so a handful of steps reaches float
                # precision.
                for _ in range(60):
                    g = self.grad_full(w)
                    step = spd_solve(self.hessian_full(w), g)
                    w = w - step
                    if np.linalg.norm(g) < 1e-15:
                        break
            w.flags.writeable = False
            self._optimum = (w, self.loss_full(w))
        return self._optimum


# ---------------------------------------------------------------------------
# Constant estimation
# ---------------------------------------------------------------------------


def _power_iteration(matvec, d: int, rng: np.random.Generator, iters: int = 60) -> float:
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        hv = matvec(v)
        lam = float(v @ hv)
        norm = np.linalg.norm(hv)
        if norm == 0:
            return 0.0
        v = hv / norm
    return abs(lam)


def estimate_constants(
    oracle: FiniteSumOracle,
    probe_points: list[NDArray],
    samples: list,
    rng: Optional[np.random.Generator] = None,
) -> ProblemConstants:
    """Empirical stand-ins for the spectral and variance constants.

    ``L`` is the largest power-iteration estimate of a subsampled Hessian
    norm over the probe points; ``sigma2_g`` is the largest sample variance
    of component gradients; ``beta2_g`` the largest squared component
    gradient norm. These are estimates from the probes supplied, not
    certified bounds, and callers may override any of them. ``rng`` seeds
    the power iterations and must be given: a shared default stream would
    start every call from the same vectors.
    """
    if len(probe_points) < 2:
        raise ValueError("need at least 2 probe points")
    if len(samples) != len(probe_points):
        raise ValueError(f"need one sample per probe point, got {len(samples)} for {len(probe_points)}")
    if rng is None:
        raise ValueError("estimate_constants needs a random stream for its power iterations; pass rng")
    l_hat = 0.0
    sigma2 = 0.0
    beta2 = 0.0
    for w, sample in zip(probe_points, samples):
        w = np.asarray(w, dtype=float)
        l_hat = max(l_hat, _power_iteration(lambda v: oracle.hvp_sub(w, sample, v), oracle.dim, rng))
        grads = oracle.component_grads(w, sample)
        mean = grads.mean(axis=0)
        dev = grads - mean
        sigma2 = max(sigma2, float(np.mean(np.sum(dev * dev, axis=1))))
        beta2 = max(beta2, float(np.max(np.sum(grads * grads, axis=1))))
    mu = None
    mu_tilde = None
    if isinstance(oracle, LogisticProblem):
        mu = 1.0 / oracle.n
        mu_tilde = mu / 2
    return ProblemConstants(
        mu=mu, L=l_hat, mu_tilde=mu_tilde, sigma2_g=sigma2, beta2_g=beta2
    )
