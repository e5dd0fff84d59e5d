"""Path-averaged Hessian state, Hutchinson diagonals, update policies.

Every average the methods keep, the Hessian averages and adam's two
moments, is one ``_Accumulator``: a running mean (uniform weights) or a
bias-corrected exponential moving average (decaying weights). Both give
weights that are nonnegative and sum to one. Full-matrix state supports a
plain average (made positive definite on demand) and an absolute-value
average (each incoming matrix replaced by its spectral absolute value,
floored by a fixed shift when preconditioning). Diagonal state averages
``|D|`` (p=1) or ``D^2`` (p=2), exposing the p-th root. Each state holds
the floor it preconditions with, fixed at construction.

A plain average of ``_OVERLAP_DIM`` rows or more, in a process that may run
on two or more CPUs and whose numpy ran one BLAS thread when the state was
built (:func:`hessavg.linalg.blas_threads`), preconditions on two threads of
the pass pool (:func:`hessavg.problems.pass_threads`): the floor test's
eigensolve on the caller and a speculative Cholesky solve of the average
beside it, which is the answer when the test returns the average unchanged.
The result has the bits and the errors of the test followed by one solve,
and a call whose test returns the average makes that one eigensolve and one
solve; below that size, on one CPU, or with more or an unknown number of
BLAS threads, the test and then one solve are what runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from . import problems
from .linalg import NotPositiveDefiniteError, blas_threads, matrix_abs, pd_modify, spd_solve

__all__ = [
    "FullAverageState",
    "DiagAverageState",
    "UpdateFrequencyPolicy",
    "hutchinson_diag",
]


# Rows from which a plain average's precondition runs its solve on a pool
# thread beside its floor test (see FullAverageState.precondition). Below
# it, handing the solve over costs more than the overlap saves. On a 2-core
# Intel Xeon (KVM, 2 MiB L2 per core, 105 MB L3), one BLAS thread, per
# unshifted call, serial -> overlapped: 0.076 -> 0.192 ms at d=32, 0.329 ->
# 0.474 ms at d=96, 0.60 -> 0.62 ms at d=128 and 0.94 -> 0.97 ms at d=160
# (ties, within the spread of repeats), 1.57 -> 1.45 ms at d=200 and 13.1 ->
# 9.5 ms at d=500. Another set of runs read 0.554 -> 0.511 ms at d=128.
# Under numpy's default of two BLAS threads, at d=500, medians of 150 calls
# in 6 sets read 15.8-17.8 ms serial and 16.2-18.9 ms overlapped, the
# overlapped slower in 5 of 6, so only one BLAS thread overlaps.
_OVERLAP_DIM = 128


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
    result positive definite via spectral modification, with eigenvalues
    floored at ``floor``, at precondition time. ``variant="abs"`` averages
    spectral absolute values and adds ``floor`` times the identity instead.
    """

    def __init__(self, dim: int, floor: float, decay: Optional[float] = None, variant: str = "plain"):
        problems.check_args(variant=variant)
        self.dim = dim
        self.floor = floor
        self.variant = variant
        self._acc = _Accumulator(decay)
        # read once: a read in each call made quad_fan's bench steps 4-7% slower
        self._overlap = dim >= _OVERLAP_DIM and blas_threads() == 1

    def update(self, h_new: NDArray) -> None:
        h_new = np.asarray(h_new, dtype=float)
        if h_new.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim, self.dim)}, got {h_new.shape}")
        if self.variant == "abs":
            h_new = matrix_abs(h_new)
        self._acc.update(h_new)

    def matrix(self) -> NDArray:
        return self._acc.value()

    def modified(self) -> tuple[NDArray, bool]:
        """The positive-definite matrix actually used for solves."""
        if self.variant == "abs":
            return self.matrix() + self.floor * np.eye(self.dim), True
        return pd_modify(self.matrix(), self.floor)

    def precondition(self, g: NDArray) -> NDArray:
        """The solution of ``H x = g`` for the matrix ``H`` of :meth:`modified`.

        A plain average runs two items through the pass pool
        (:func:`~hessavg.problems._share_runs`): the floor test,
        :meth:`modified`, on the calling thread, and a Cholesky solve. From
        ``_OVERLAP_DIM`` rows on, with two or more CPUs and one BLAS thread
        (:func:`~hessavg.linalg.blas_threads`, read when the state is built
        and only at that size; an unknown count runs serially), the solve
        runs on a pool thread beside the test, speculatively, on the average
        as it stands; both sides are LAPACK calls that release the GIL.
        Under two BLAS threads on two CPUs the two sides' calls share the
        CPUs, and the overlapped call was the slower one. When the test
        returns the average as it is, bit for bit, that solve is the answer;
        when it returns another matrix (a shifted spectrum, or the absolute
        value of an indefinite one), that matrix is solved after it.
        Otherwise both items run on the caller: the test, then one solve of
        the matrix it returned. Either way the answer has the bits of that
        one solve, a call whose test returns the average makes one
        eigensolve and one solve, and a ``NotPositiveDefiniteError`` of the
        speculative solve is raised only when its solution is the answer.
        The factor's array is made here, on the calling thread.
        """
        if self.variant == "abs":
            h, _ = self.modified()
            return spd_solve(h, g)
        average = self.matrix()
        work = np.empty((self.dim, self.dim))
        tested: list = []
        solved: list = []

        def run(_, items: range) -> None:
            if 0 in items:
                tested.append(self.modified())
            if 1 in items:
                try:
                    solved.append(spd_solve(tested[0][0] if 0 in items else average, g, work))
                except NotPositiveDefiniteError as error:
                    solved.append(error)

        threads = problems.pass_threads() if self._overlap else 1
        problems._share_runs(run, 2, threads)
        ((h, _),), (x,) = tested, solved
        if threads > 1 and not np.array_equal(h, average):
            return spd_solve(h, g, work)
        if isinstance(x, NotPositiveDefiniteError):
            raise x
        return x


class DiagAverageState:
    """Running l^p average of diagonal Hessian estimates (p = 1 or 2),
    each entry offset by ``floor`` when preconditioning."""

    def __init__(self, dim: int, floor: float, p: int = 1, decay: Optional[float] = None):
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p}")
        self.dim = dim
        self.floor = floor
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

    def precondition(self, g: NDArray) -> NDArray:
        return np.asarray(g, dtype=float) / (self.preconditioner() + self.floor)


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
        problems.check_args(**vars(self))

    def should_update(self, iteration: int) -> bool:
        if iteration < self.warmup:
            return True
        return (iteration - self.warmup) % self.hf == 0
