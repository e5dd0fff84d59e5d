"""Dense symmetric linear-algebra kernels.

Everything here operates on plain ``numpy`` arrays. Matrices are small
(d up to a few thousand), stored dense, and treated as exactly symmetric;
callers are expected to go through :func:`pd_modify` before asking for a
positive-definite solve.

:func:`pd_modify` computes the smallest eigenvalue before any
eigenvectors. A matrix whose spectrum already clears the floor comes back
as itself, so the common strongly convex step costs one eigensolve for one
eigenvalue (LAPACK ``dsyevr`` over an index range) and no
``U diag(vals) U^T`` rebuild; only a matrix that needs its absolute value
or a shift pays for the full decomposition on top. Either way a call
makes one or two eigensolves and no factorization.

The LAPACK routines (``dsyevr``, ``dpotrf``, ``dpotrs``) come from
``scipy.linalg``, which this module imports once per process, on the first
eigensolve or factorization (:func:`_lapack`), and not at import: a run
whose method factors nothing (sgd, adam, dan, dan2, adahessian) never loads
scipy. :class:`NotPositiveDefiniteError` derives from
``numpy.linalg.LinAlgError``, the class ``scipy.linalg`` exports under the
same name.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import LinAlgError
from numpy.typing import NDArray

__all__ = [
    "EigDecomposition",
    "NotPositiveDefiniteError",
    "check_symmetric",
    "sym_eig",
    "matrix_abs",
    "pd_modify",
    "spd_solve",
    "weighted_norm_sq",
]

SYM_RTOL = 1e-12


@cache
def _lapack():
    """``scipy.linalg.lapack``, imported on the first call in a process."""
    from scipy.linalg import lapack

    return lapack


class NotPositiveDefiniteError(LinAlgError):
    """Raised when a Cholesky factorization hits a non-positive pivot.

    Callers should run the offending matrix through :func:`pd_modify`
    and retry.
    """


class EigDecomposition(NamedTuple):
    """Spectral decomposition ``A = U diag(values) U^T``.

    ``eigenvalues`` are sorted ascending, ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns. When no vectors
    were asked for, ``eigenvalues`` holds only the smallest eigenvalue (a
    length-1 array) and ``eigenvectors`` is None.
    """

    eigenvalues: NDArray
    eigenvectors: Optional[NDArray]


def check_symmetric(a: NDArray, *, rtol: float = SYM_RTOL) -> NDArray:
    """Validate that ``a`` is a finite, symmetric, square matrix.

    Returns the explicitly symmetrized matrix ``(a + a^T) / 2`` so that
    downstream LAPACK calls see an exactly symmetric input. An input that
    is already exactly symmetric is returned as is, not copied.

    Raises
    ------
    ValueError
        If ``a`` is not square, contains non-finite entries, or has an
        asymmetry exceeding ``rtol * max(1, |a_ij|)`` in any entry.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.array_equal(a, a.T):
        return a
    gap = np.abs(a - a.T)
    tol = rtol * np.maximum(1.0, np.abs(a))
    if np.any(gap > tol):
        i, j = np.unravel_index(np.argmax(gap - tol), a.shape)
        raise ValueError(
            f"matrix is not symmetric: |A[{i},{j}] - A[{j},{i}]| = {gap[i, j]:.3e}"
        )
    return 0.5 * (a + a.T)


def sym_eig(a: NDArray, vectors: bool = True) -> EigDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues come back in ascending order; the reconstruction
    ``U diag(vals) U^T`` matches the input to about 1e-9 relative in the
    max norm. With ``vectors=False`` only the smallest eigenvalue is
    computed, as a length-1 array, and ``eigenvectors`` is None: LAPACK
    ``dsyevr`` restricted to index 1 skips the rest of the spectrum.

    Raises
    ------
    LinAlgError
        If ``dsyevr`` reports a failure.
    """
    a = check_symmetric(a)
    if not vectors:
        w, _, _, _, info = _lapack().dsyevr(a, compute_v=0, range="I", il=1, iu=1)
        if info != 0:
            raise LinAlgError(f"dsyevr failed with info={info}")
        return EigDecomposition(w[:1], None)
    vals, vecs = np.linalg.eigh(a)
    return EigDecomposition(vals, vecs)


def matrix_abs(a: NDArray) -> NDArray:
    """Spectral absolute value: flip the sign of every negative eigenvalue.

    For ``A = U diag(vals) U^T`` returns ``U diag(|vals|) U^T``. The result
    is positive semidefinite and commutes with ``A``.
    """
    vals, vecs = sym_eig(a)
    out = (vecs * np.abs(vals)) @ vecs.T
    return 0.5 * (out + out.T)


def pd_modify(h_hat: NDArray, mu_tilde: float) -> tuple[NDArray, bool]:
    """Make a symmetric matrix safely positive definite.

    Takes the spectral absolute value of ``h_hat`` and, if its smallest
    eigenvalue still falls below ``mu_tilde``, shifts the whole spectrum
    up so the smallest eigenvalue equals ``mu_tilde``.

    The smallest eigenvalue is computed first, on its own. When it is at
    least ``mu_tilde``, ``|h_hat| = h_hat`` needs no shift, and a copy of
    the symmetrized input is returned with no eigenvectors and no rebuild.
    That copy is exact, where the rebuild ``U diag(vals) U^T`` carries
    rounding in its last bits. Any other matrix pays for that one-eigenvalue
    solve on top of the full decomposition.

    Returns
    -------
    (h_tilde, was_shifted)
        ``was_shifted`` is False exactly when ``lambda_min(|h_hat|) >=
        mu_tilde``, in which case ``h_tilde`` is ``|h_hat|`` unchanged.
    """
    if not mu_tilde > 0:
        raise ValueError(f"mu_tilde must be positive, got {mu_tilde}")
    h = check_symmetric(h_hat)
    if sym_eig(h, vectors=False).eigenvalues[0] >= mu_tilde:
        return h.copy(), False
    vals, vecs = sym_eig(h)
    abs_vals = np.abs(vals)
    lam_min = abs_vals.min()
    shifted = bool(lam_min < mu_tilde)
    if shifted:
        abs_vals = abs_vals + (mu_tilde - lam_min)
    out = (vecs * abs_vals) @ vecs.T
    return 0.5 * (out + out.T), shifted


def spd_solve(h: NDArray, g: NDArray) -> NDArray:
    """Solve ``H x = g`` for symmetric positive-definite ``H`` via Cholesky.

    ``g`` may be a vector or a matrix of stacked right-hand sides. LAPACK
    ``dpotrf``/``dpotrs`` are called directly, with the arguments scipy's
    ``cho_factor``/``cho_solve`` pass them, so the result has the same bits
    without those wrappers' checks and copies. Neither ``h`` nor ``g`` is
    overwritten.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization fails; the caller should :func:`pd_modify`
        first.
    ValueError
        If ``g`` is not a vector or matrix with as many rows as ``h``.
    """
    h = check_symmetric(h)
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != h.shape[0]:
        raise ValueError(f"right-hand side of shape {g.shape} does not fit a matrix of shape {h.shape}")
    lapack = _lapack()
    factor, info = lapack.dpotrf(h, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed at leading minor {info}; matrix is not positive definite"
        )
    if info < 0:
        raise LinAlgError(f"dpotrf: illegal value in argument {-info}")
    x, info = lapack.dpotrs(factor, g, lower=1)
    if info != 0:
        raise LinAlgError(f"dpotrs: illegal value in argument {-info}")
    return x


def weighted_norm_sq(v: NDArray, inverse_of: Optional[NDArray] = None) -> float:
    """Quadratic form ``v^T A v`` for ``A = I`` or ``A = H^{-1}``.

    With ``inverse_of=None`` this is the squared Euclidean norm. Passing a
    symmetric positive-definite ``H`` computes ``v^T H^{-1} v`` through a
    Cholesky solve (``H`` itself is supplied, not its inverse).
    """
    v = np.asarray(v, dtype=float)
    if inverse_of is None:
        return float(v @ v)
    x = spd_solve(inverse_of, v)
    return float(v @ x)
