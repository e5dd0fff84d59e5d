"""Hessian sample-set generation and gradient sample-size control.

Every object here is a rule, fixed for a run: what a run changes (its batch
size and how many Hessian samples it has drawn) lives in its
:class:`~hessavg.optimizers.OptState`, and the rules read it as an argument.

Two Hessian samplers: a cyclic without-replacement sampler over a fixed
partition, whose ``j``-th block is block ``j mod n_blocks`` (the partition
order never changes across cycles, so block averages over whole cycles
cancel exactly for constant component Hessians), and an i.i.d. sampler that
defers to the oracle's own draw.

Gradient batch sizing is a one-way ratchet: sizes never decrease within a
run, and never pass the cap. The adaptive modes run a norm test on each
iteration that starts below the cap and grow the batch by the observed
violation ratio on failure; at the cap no test can change the batch, so
none is run. This module gives the two sides of each test, ``lhs`` and
``||g||_A^2``, where ``A`` is the identity or, for the exact test under
``a_mode="inverse_hessian"``, the inverse of the run's floored Hessian
average; the step loop (:func:`hessavg.optimizers._run_controller`)
forms ``rhs = theta^2 ||g||_A^2 + iota`` and applies ``lhs <= rhs``, and
:meth:`GradSampleController.record_test` turns its outcome into the next size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .linalg import weighted_norm_sq
from .problems import FiniteSumOracle, check_args
from .rng import generator

__all__ = [
    "CyclicSampler",
    "IidSampler",
    "GradSampleController",
    "exact_norm_terms",
    "approx_norm_terms",
]

class CyclicSampler:
    """Deterministic block traversal of ``range(n)`` in a fixed order.

    ``n`` must be divisible by ``block_size``. With ``seed=None`` the
    partition is the identity order ``{0..b-1}, {b..2b-1}, ...``;
    otherwise it is a single seeded permutation, fixed at construction and
    never reshuffled. Its size and seed are bounded as their config keys,
    ``'size'`` and ``'seed'``, are; a size that does not divide ``n`` is
    refused as one that does not divide the problem's component count.
    """

    def __init__(self, n: int, block_size: int, seed: Optional[int] = None):
        check_args(size=block_size, **({} if seed is None else {"seed": seed}))
        if n % block_size != 0:
            raise ValueError(f"'size' must divide the problem's component count {n}, got {block_size}")
        self.n = n
        self.block_size = block_size
        self.n_blocks = n // block_size
        order = np.arange(n) if seed is None else generator(seed).permutation(n)
        self._blocks = [order[i * block_size : (i + 1) * block_size] for i in range(self.n_blocks)]

    def next_block(self, j: int, oracle: FiniteSumOracle, rng: np.random.Generator) -> NDArray:
        """The block of Hessian sample ``j`` (0-based); it draws nothing."""
        return self._blocks[j % self.n_blocks]


class IidSampler:
    """Independent sample draws of a fixed size, one per call; the size is
    bounded as its config key, ``'size'``, is."""

    def __init__(self, block_size: int):
        check_args(size=block_size)
        self.block_size = block_size

    def next_block(self, j: int, oracle: FiniteSumOracle, rng: np.random.Generator) -> NDArray:
        """A fresh draw from ``rng``; the sample's index ``j`` is not read."""
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


# ---------------------------------------------------------------------------
# Gradient sample-size controller
# ---------------------------------------------------------------------------

ADAPTIVE_MODES = ("exact_norm_test", "approx_norm_test")
ALL_MODES = ("fixed", "geometric_epochs") + ADAPTIVE_MODES


@dataclass(frozen=True)
class GradSampleController:
    """The rule that sizes the gradient batch each iteration, and weights
    the exact norm test.

    It is a rule, not a state machine: the run keeps its batch size
    (``OptState.batch``, 0 before the first step) and hands it in as
    ``current``. ``sizes`` is the one size table: one entry, the first
    batch, unless the mode is ``geometric_epochs``. No size it holds is
    above ``cap``: a config's reader clamps each to the cap (see
    :func:`hessavg.harness._read_grad`), which also reads this class's
    defaults as its own.

    Modes
    -----
    fixed
        Constant ``sizes[0]``.
    geometric_epochs
        ``sizes[min(epoch // epochs_per_block, last)]``.
    exact_norm_test / approx_norm_test
        Keep the current size while the test ``lhs <= rhs`` passes; on
        failure grow to ``ceil(current * lhs / rhs)``, clamped to the cap.
        The test runs only while :meth:`can_grow`: once the batch is at
        the cap its outcome could not change it.

    ``a_mode`` weights the exact test: ``"identity"`` (Euclidean) or
    ``"inverse_hessian"`` (by the inverse of the run's floored average).

    Each field but ``mode`` is bounded by its row of
    :data:`hessavg.problems.BOUNDS` (each entry of ``sizes`` by the row of
    ``'sizes'``). The class keeps the rules that span fields: a table only
    in ``geometric_epochs`` and one size in the other modes, no size above
    the cap, and ``inverse_hessian`` only with the exact test.
    """

    mode: str
    sizes: tuple[int, ...]
    cap: int
    epochs_per_block: int = 20
    a_mode: str = "identity"

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        check_args(**vars(self))
        if self.mode == "geometric_epochs" and not self.sizes:
            raise ValueError("geometric_epochs mode requires a nonempty 'sizes' table")
        if self.mode != "geometric_epochs" and len(self.sizes) != 1:
            raise ValueError(f"mode {self.mode!r} takes one batch size in 'sizes', got {len(self.sizes)}")
        if max(self.sizes, default=1) > self.cap:
            raise ValueError(f"'sizes' must be <= the cap {self.cap}, got {max(self.sizes)}")
        if self.a_mode == "inverse_hessian" and self.mode != "exact_norm_test":
            raise ValueError(f"a_mode 'inverse_hessian' weights the exact norm test; it needs mode 'exact_norm_test', not {self.mode!r}")

    @property
    def adaptive(self) -> bool:
        return self.mode in ADAPTIVE_MODES

    def can_grow(self, size: int) -> bool:
        """Whether a norm test can still change a batch of ``size``: the mode
        is adaptive and the batch is below the cap. Sizes never shrink, so
        once this is false it stays false for the run."""
        return self.adaptive and size < self.cap

    def size(self, epoch: float, current: int) -> int:
        """Batch size for the iteration starting at ``epoch``, from a run whose
        batch is ``current``: the mode's size, and never below ``current``."""
        return max(current, self.sizes[min(int(epoch) // self.epochs_per_block, len(self.sizes) - 1)])

    def record_test(self, passed: bool, lhs: float, rhs: float, current: int) -> int:
        """The size after the norm test ``lhs <= rhs`` on a batch of ``current``.

        A passing test keeps the size. On failure the size grows by the
        violation ratio ``lhs / rhs``, never decreasing and never exceeding
        the cap.
        """
        if not self.adaptive or passed:
            return current
        # A tiny rhs can overflow the ratio to inf, which ceil() rejects.
        proposed = current * lhs / rhs if rhs > 0 else math.inf
        proposed = self.cap if proposed >= self.cap else math.ceil(proposed)
        return min(self.cap, max(current, proposed))
