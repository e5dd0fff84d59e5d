"""Hessian sample-set generation and gradient sample-size control.

Two Hessian samplers: a cyclic without-replacement sampler over a fixed
partition (the partition order never changes across cycles, so block
averages over whole cycles cancel exactly for constant component
Hessians), and an i.i.d. sampler that defers to the oracle's own draw.

Gradient batch sizing is a one-way ratchet: sizes never decrease within a
run, and never pass the cap. The adaptive modes run a norm test on each
iteration that starts below the cap and grow the batch by the observed
violation ratio on failure; at the cap no test can change the batch, so
none is run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .linalg import weighted_norm_sq
from .problems import FiniteSumOracle, ProblemConstants

__all__ = [
    "CyclicSampler",
    "IidSampler",
    "GradSampleController",
    "exact_norm_terms",
    "exact_norm_test",
    "approx_norm_terms",
    "approx_norm_test",
    "required_size_stochastic",
    "required_size_deterministic",
]

DEFAULT_EXPECTATION_CAP = 2**16


class CyclicSampler:
    """Deterministic block traversal of ``range(n)`` in a fixed order.

    ``n`` must be divisible by ``block_size``. With ``seed=None`` the
    partition is the identity order ``{0..b-1}, {b..2b-1}, ...``;
    otherwise it is a single seeded permutation, fixed at construction and
    never reshuffled.
    """

    def __init__(self, n: int, block_size: int, seed: Optional[int] = None):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if n % block_size != 0:
            raise ValueError(f"block_size {block_size} must divide n {n}")
        self.n = n
        self.block_size = block_size
        self.n_blocks = n // block_size
        if seed is None:
            order = np.arange(n)
        else:
            order = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed))
            ).permutation(n)
        self._blocks = [order[i * block_size : (i + 1) * block_size] for i in range(self.n_blocks)]
        self._cursor = 0

    def next_block(self, oracle=None, rng=None) -> NDArray:
        block = self._blocks[self._cursor]
        self._cursor = (self._cursor + 1) % self.n_blocks
        return block


class IidSampler:
    """Independent sample draws of a fixed size, one per call."""

    def __init__(self, block_size: int):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def next_block(self, oracle: FiniteSumOracle, rng: np.random.Generator):
        return oracle.draw_sample(rng, self.block_size)


# ---------------------------------------------------------------------------
# Norm tests
# ---------------------------------------------------------------------------


def exact_norm_terms(
    g: NDArray, grad_full: NDArray, inverse_of: Optional[NDArray] = None
) -> tuple[float, float]:
    """The two sides of the exact norm test, ``(||g - grad_full||_A^2,
    ||grad_full||_A^2)``.

    ``inverse_of`` selects the weighting: ``None`` for the Euclidean norm,
    or a symmetric positive-definite matrix ``H`` for the ``H^{-1}``
    weighted norm.
    """
    g = np.asarray(g, dtype=float)
    grad_full = np.asarray(grad_full, dtype=float)
    if g.shape != grad_full.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {grad_full.shape}")
    return weighted_norm_sq(g - grad_full, inverse_of), weighted_norm_sq(grad_full, inverse_of)


def exact_norm_test(
    g: NDArray,
    grad_full: NDArray,
    theta: float,
    iota: float,
    inverse_of: Optional[NDArray] = None,
) -> bool:
    """Check ``||g - grad_full||_A^2 <= theta^2 ||grad_full||_A^2 + iota``;
    see :func:`exact_norm_terms` for the weighting."""
    lhs, rhs_norm = exact_norm_terms(g, grad_full, inverse_of)
    return bool(lhs <= theta**2 * rhs_norm + iota)


def approx_norm_terms(component_grads: NDArray, g_batch: NDArray) -> tuple[float, float]:
    """The two sides of the approximate norm test, ``(mean_i ||grad_i -
    g_batch||^2, ||g_batch||^2)``.

    ``g_batch`` is the batch gradient, the mean of the component gradients
    up to rounding; the step loop passes the oracle's
    :meth:`~hessavg.problems.FiniteSumOracle.loss_grad_sub` value, so the
    component gradients serve the variance only."""
    grads = np.asarray(component_grads, dtype=float)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise ValueError("component_grads must be a nonempty (m, d) array")
    g_batch = np.asarray(g_batch, dtype=float)
    dev = grads - g_batch
    return float(np.mean(np.sum(dev * dev, axis=1))), float(g_batch @ g_batch)


def approx_norm_test(
    component_grads: NDArray, g_batch: NDArray, theta: float, iota: float
) -> bool:
    """Sample-variance surrogate for the norm test, Euclidean weighting.

    Checks ``mean_i ||grad_i - g_batch||^2 <= theta^2 ||g_batch||^2 +
    iota``; see :func:`approx_norm_terms`.
    """
    variance, g_norm_sq = approx_norm_terms(component_grads, g_batch)
    return variance <= theta**2 * g_norm_sq + iota


def required_size_stochastic(
    constants: ProblemConstants,
    lambda_max_a: float,
    grad_norm_sq: float,
    grad_a_norm_sq: float,
    theta: float,
    iota: float,
) -> int:
    """Smallest i.i.d. batch size guaranteeing the expected norm condition.

    Evaluates ``lambda_max(A) (sigma1^2 ||grad||^2 + sigma2^2) /
    (theta^2 ||grad||_A^2 + iota)``, rounded up and clamped to >= 1.
    """
    denom = theta**2 * grad_a_norm_sq + iota
    if denom <= 0:
        raise ValueError("theta^2 * ||grad||_A^2 + iota must be positive")
    numer = lambda_max_a * (constants.sigma1_g**2 * grad_norm_sq + constants.sigma2_g**2)
    return max(1, math.ceil(numer / denom))


def required_size_deterministic(
    n_total: int,
    constants: ProblemConstants,
    lambda_max_a: float,
    grad_norm_sq: float,
    grad_a_norm_sq: float,
    theta: float,
    iota: float,
) -> int:
    """Batch size at which every subset of a finite sum meets the norm
    condition.

    If every component satisfies ``||grad_i||^2 <= beta1 ||grad||^2 +
    beta2``, every subset S of the N components has ``||g_S - grad||^2 <=
    4 (1 - |S|/N)^2 (beta1 ||grad||^2 + beta2)``. The returned size is the
    smallest ``|S|`` at which that worst case, times ``lambda_max(A)``,
    is at most ``theta^2 ||grad||_A^2 + iota``; so every subset of this
    size or larger satisfies ``||g_S - grad||_A^2 <= theta^2 ||grad||_A^2 +
    iota``. It evaluates ``N (1 - sqrt((theta^2 ||grad||_A^2 + iota) /
    (4 lambda_max(A) (beta1 ||grad||^2 + beta2))))``, rounded up and
    clamped to ``[1, N]``.
    """
    denom = 4.0 * lambda_max_a * (constants.beta1_g * grad_norm_sq + constants.beta2_g)
    if denom <= 0:
        raise ValueError("beta1_g * ||grad||^2 + beta2_g must be positive")
    ratio = (theta**2 * grad_a_norm_sq + iota) / denom
    bound = n_total * (1.0 - math.sqrt(ratio))
    return min(n_total, max(1, math.ceil(bound)))


# ---------------------------------------------------------------------------
# Gradient sample-size controller
# ---------------------------------------------------------------------------

ADAPTIVE_MODES = ("exact_norm_test", "approx_norm_test")
ALL_MODES = ("fixed", "geometric_epochs") + ADAPTIVE_MODES


@dataclass
class GradSampleController:
    """State machine deciding the gradient batch size each iteration.

    Modes
    -----
    fixed
        Constant ``initial_size``.
    geometric_epochs
        ``sizes[min(epoch // epochs_per_block, last)]``, clamped to the cap.
    exact_norm_test / approx_norm_test
        Keep the current size while the test passes; on failure grow to
        ``ceil(current * observed_variance / (theta^2 ||g||^2 + iota))``,
        clamped to the cap. The test runs only while :attr:`can_grow`:
        once the batch is at the cap its outcome could not change it.
    """

    mode: str
    initial_size: int = 1
    cap: int = DEFAULT_EXPECTATION_CAP
    sizes: Sequence[int] = field(default_factory=tuple)
    epochs_per_block: int = 20
    current_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        if self.mode == "geometric_epochs" and not self.sizes:
            raise ValueError("geometric_epochs mode requires a size table")
        if self.initial_size < 1:
            raise ValueError("initial_size must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.epochs_per_block < 1:
            raise ValueError(f"epochs_per_block must be >= 1, got {self.epochs_per_block}")
        self.current_size = min(self.initial_size, self.cap)

    @property
    def adaptive(self) -> bool:
        return self.mode in ADAPTIVE_MODES

    @property
    def can_grow(self) -> bool:
        """Whether a norm test can still change the batch: the mode is
        adaptive and the batch is below the cap. Sizes never shrink, so
        once this is false it stays false for the run."""
        return self.adaptive and self.current_size < self.cap

    def size(self, epoch: float) -> int:
        """Batch size to use for the iteration starting at ``epoch``."""
        if self.mode == "geometric_epochs":
            block = min(int(epoch) // self.epochs_per_block, len(self.sizes) - 1)
            size = min(int(self.sizes[block]), self.cap)
            # the table is consulted fresh each iteration but never shrinks
            self.current_size = max(self.current_size, size)
        return self.current_size

    def record_test(
        self, passed: bool, observed_variance: float, g_norm_sq: float, theta: float, iota: float
    ) -> int:
        """Update the size after a norm test; returns the new size.

        A passing test leaves the size unchanged. On failure the size
        grows by the violation ratio ``observed_variance / (theta^2
        ||g||^2 + iota)``, never decreasing and never exceeding the cap.
        """
        if not self.adaptive:
            return self.current_size
        if passed:
            return self.current_size
        rhs = theta**2 * g_norm_sq + iota
        if rhs <= 0:
            proposed = self.cap
        else:
            proposed = math.ceil(self.current_size * observed_variance / rhs)
        self.current_size = min(self.cap, max(self.current_size, proposed))
        return self.current_size
