"""Path-averaged Hessian state, Hutchinson diagonals, update policies.

Every average the methods keep, the Hessian averages and adam's two
moments, is one ``_Accumulator``: a running mean (uniform weights) or a
bias-corrected exponential moving average (decaying weights). Both give
weights that are nonnegative and sum to one. Full-matrix state supports a
plain average (made positive definite on demand) and an absolute-value
average (each incoming matrix replaced by its spectral absolute value,
floored by a fixed shift when preconditioning). Diagonal state averages
``|D|`` (p=1) or ``D^2`` (p=2), exposing the p-th root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .linalg import matrix_abs, pd_modify, spd_solve

__all__ = [
    "FullAverageState",
    "DiagAverageState",
    "UpdateFrequencyPolicy",
    "hutchinson_diag",
]


class _Accumulator:
    """Uniform running mean or raw EMA with lazy bias correction.

    With a decay ``beta`` the raw recurrence is ``S_k = beta S_{k-1} +
    (1 - beta) D_k`` from ``S_0 = 0``, and :meth:`value` is the corrected
    ``S_k / (1 - beta^k)``: weight ``(1 - beta) beta^(k-i) / (1 - beta^k)``
    on ``D_i``. ``decay=0.0`` keeps only the newest value: the EMA step is
    then ``acc = value`` and the correction divides by exactly 1.
    """

    def __init__(self, decay: Optional[float]):
        if decay is not None and not 0 <= decay < 1:
            raise ValueError(f"decay must lie in [0, 1), got {decay}")
        self.decay = decay
        self.count = 0
        self._acc: Optional[NDArray] = None

    def update(self, value: NDArray) -> None:
        # In place, with the rounding of acc + (value - acc) / count and
        # decay * acc + (1 - decay) * value.
        value = np.asarray(value, dtype=float)
        if self._acc is None:
            self._acc = np.zeros_like(value)
        acc = self._acc
        self.count += 1
        if self.decay is None:
            diff = value - acc
            diff /= self.count
            acc += diff
        else:
            acc *= self.decay
            acc += (1.0 - self.decay) * value

    def value(self) -> NDArray:
        if self._acc is None or self.count == 0:
            raise ValueError("accumulator has no updates yet")
        if self.decay is None:
            return self._acc
        return self._acc / (1.0 - self.decay**self.count)


class FullAverageState:
    """Running average of dense symmetric Hessian estimates.

    ``variant="plain"`` averages the matrices as given and makes the
    result positive definite via spectral modification at precondition
    time. ``variant="abs"`` averages spectral absolute values and adds a
    constant floor instead.
    """

    def __init__(self, dim: int, decay: Optional[float] = None, variant: str = "plain"):
        if variant not in ("plain", "abs"):
            raise ValueError(f"variant must be 'plain' or 'abs', got {variant!r}")
        self.dim = dim
        self.variant = variant
        self._acc = _Accumulator(decay)

    def update(self, h_new: NDArray) -> None:
        h_new = np.asarray(h_new, dtype=float)
        if h_new.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim, self.dim)}, got {h_new.shape}")
        if self.variant == "abs":
            h_new = matrix_abs(h_new)
        self._acc.update(h_new)

    def matrix(self) -> NDArray:
        return self._acc.value()

    def modified(self, floor: float) -> tuple[NDArray, bool]:
        """The positive-definite matrix actually used for solves."""
        if self.variant == "abs":
            return self.matrix() + floor * np.eye(self.dim), True
        return pd_modify(self.matrix(), floor)

    def precondition(self, g: NDArray, floor: float) -> NDArray:
        h, _ = self.modified(floor)
        return spd_solve(h, g)


class DiagAverageState:
    """Running l^p average of diagonal Hessian estimates (p = 1 or 2)."""

    def __init__(self, dim: int, p: int = 1, decay: Optional[float] = None):
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p}")
        self.dim = dim
        self.p = p
        self._acc = _Accumulator(decay)

    def update(self, d_new: NDArray) -> None:
        d_new = np.asarray(d_new, dtype=float)
        if d_new.shape != (self.dim,):
            raise ValueError(f"expected shape {(self.dim,)}, got {d_new.shape}")
        self._acc.update(np.abs(d_new) if self.p == 1 else d_new * d_new)

    def preconditioner(self) -> NDArray:
        acc = self._acc.value()
        return acc if self.p == 1 else np.sqrt(acc)

    def precondition(self, g: NDArray, floor: float) -> NDArray:
        return np.asarray(g, dtype=float) / (self.preconditioner() + floor)


def hutchinson_diag(
    hvp: Callable[[NDArray], NDArray], dim: int, rank: int, rng: Optional[np.random.Generator]
) -> NDArray:
    """Unbiased randomized estimate of ``diag(H)`` from ``rank`` products.

    Draws Rademacher probes ``z`` and averages ``z * (H z)``; since
    ``z_i^2 = 1`` each entry is exactly unbiased, and the estimate is
    exact for diagonal ``H`` at any rank. Probes are reduced in draw
    order, so results are deterministic given the stream, which must be
    supplied: a shared default would reuse the same probes on every call.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rng is None:
        raise ValueError("hutchinson_diag needs a probe stream")
    z = rng.integers(0, 2, size=(dim, rank)).astype(float) * 2.0 - 1.0
    hz = hvp(z)
    if hz.shape != z.shape:
        raise ValueError(f"hvp returned shape {hz.shape}, expected {z.shape}")
    if not np.all(np.isfinite(hz)):
        raise ValueError("hvp returned non-finite values")
    return np.mean(z * hz, axis=1)


@dataclass(frozen=True)
class UpdateFrequencyPolicy:
    """When to recompute the Hessian estimate.

    Updates happen at every iteration below ``warmup``; afterwards every
    ``hf``-th iteration (counted from the end of warmup).
    """

    warmup: int = 0
    hf: int = 1

    def __post_init__(self) -> None:
        if self.hf < 1:
            raise ValueError("hf must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")

    def should_update(self, iteration: int) -> bool:
        if iteration < self.warmup:
            return True
        return (iteration - self.warmup) % self.hf == 0
