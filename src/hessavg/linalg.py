"""Dense symmetric linear-algebra kernels.

Everything here operates on plain ``numpy`` arrays. Matrices are small
(d up to a few thousand), stored dense, and exactly symmetric: a matrix
is made symmetric where it is built, and one with ``a != a^T`` in any bit
is refused (:func:`check_symmetric`), never repaired. Callers are
expected to go through :func:`pd_modify` before asking for a
positive-definite solve.

:func:`pd_modify` computes the smallest eigenvalue before any
eigenvectors. A matrix whose spectrum already clears the floor comes back
as itself, so the common strongly convex step costs one eigensolve for one
eigenvalue (LAPACK ``dsyevr`` over an index range) and no
``U diag(vals) U^T`` rebuild; only a matrix that needs its absolute value
or a shift pays for the full decomposition on top. Either way a call
makes one or two eigensolves and no factorization.

The LAPACK routines (``dsyevr``, ``dpotrf``, ``dpotrs``) are those of the
OpenBLAS that numpy links and has already loaded, called through ``ctypes``
(:func:`_lapack`, bound on the first call in a process). Nothing else is
loaded for them, and no scipy: no hessavg process imports it.
"""

from __future__ import annotations

import ctypes
from functools import cache
from typing import NamedTuple, Optional

import numpy as np
from numpy._core import _multiarray_umath
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
    "numpy_blas",
]


@cache
def numpy_blas() -> ctypes.CDLL:
    """numpy's core extension module, opened with ``ctypes``.

    Its symbols resolve through the libraries it links, so this handle finds
    those of the OpenBLAS (``libscipy_openblas64_``) that runs numpy's
    products and ``eigh``. Opening it maps nothing new.
    """
    return ctypes.CDLL(_multiarray_umath.__file__)


def _address(a: NDArray) -> int:
    """Where the data of a writable C-contiguous array starts (cheaper than
    ``a.ctypes.data``, which builds an object on each access)."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


# A routine's count of arguments, each passed by pointer, and of character
# arguments among them: gfortran passes one hidden length per character
# argument after the others.
_ROUTINES = {"dsyevr": (21, 3), "dpotrf": (5, 1), "dpotrs": (8, 1)}
# The zero passed as dsyevr's vl, vu and abstol, which it only reads.
_ZERO = ctypes.c_double(0.0)


class _Lapack:
    """``dsyevr``, ``dpotrf`` and ``dpotrs`` of numpy's OpenBLAS.

    The routines are the ILP64 Fortran ones (``scipy_<name>_64_``), so
    every integer argument is 64-bit. A matrix passed in is exactly
    symmetric, as its producer built it: :func:`check_symmetric` refused any
    other. Each call passes LAPACK fresh C-ordered arrays, or the caller's
    ``work`` for the factor, which LAPACK reads column-major, as their
    transposes, so that copy of a matrix holds its values. Neither input is
    written to, and every other argument, integers included, is made anew in
    each call, so calls from several threads share nothing they did not
    hand in.
    """

    def __init__(self, lib):
        for name, (n_args, n_chars) in _ROUTINES.items():
            symbol = f"scipy_{name}_64_"
            try:
                routine = getattr(lib, symbol)
            except AttributeError:
                raise ImportError(f"numpy's BLAS library lacks the LAPACK routine {symbol}") from None
            routine.argtypes = [ctypes.c_void_p] * n_args + [ctypes.c_size_t] * n_chars
            routine.restype = None
            setattr(self, f"_{name}", routine)

    def dsyevr(self, a: NDArray) -> tuple[NDArray, int]:
        """The smallest eigenvalue of ``a``, as a length-1 array, and ``info``.

        The arguments are those scipy's ``dsyevr(a, compute_v=0, range="I",
        il=1, iu=1)`` passes, its workspace sizes included: ``lwork = 26n``
        and ``liwork = 10n``. The optimal ``lwork`` moves the eigenvalue's
        last bits at d of 200 and more.
        """
        n = a.shape[0]
        # rows: the matrix, w, a dummy z (not referenced), 26 of work
        buf = np.empty((n + 28, n))
        buf[:n] = a
        # n; il = iu = ldz = 1; lwork; liwork; m; info; then isuppz (2n), iwork (10n)
        ints = (ctypes.c_int64 * (6 + 12 * n))(n, 1, 26 * n, 10 * n)
        i, f, zero = ctypes.addressof(ints), _address(buf), ctypes.addressof(_ZERO)
        row = 8 * n
        self._dsyevr(b"N", b"I", b"U", i, f, i, zero, zero, i + 8, i + 8, zero, i + 32,
                     f + n * row, f + (n + 1) * row, i + 8, i + 48, f + (n + 2) * row, i + 16,
                     i + 48 + 16 * n, i + 24, i + 40, 1, 1, 1)
        return buf[n, :1].copy(), ints[5]

    def dpotrf(self, h: NDArray, work: Optional[NDArray] = None) -> tuple[NDArray, int]:
        """The Cholesky factor ``L`` of ``h`` and ``info``, as scipy's
        ``dpotrf(h, lower=1, clean=0)`` returns them: ``L`` in the lower
        triangle of an F-ordered array whose strict upper triangle is ``h``'s.
        That array is the transpose of ``work`` when one is given, a
        C-ordered float array of ``h``'s shape, and else of a new one."""
        if work is None:
            c = np.array(h, dtype=float, order="C")
        else:
            c = work
            c[...] = h
        ints = (ctypes.c_int64 * 2)(h.shape[0])
        i = ctypes.addressof(ints)
        self._dpotrf(b"L", i, _address(c), i, i + 8, 1)
        return c.T, ints[1]

    def dpotrs(self, factor: NDArray, g: NDArray) -> tuple[NDArray, int]:
        """The solution of ``L L^T x = g`` for a factor from :meth:`dpotrf`,
        in ``g``'s shape, and ``info``."""
        b = np.array(g.T, dtype=float, order="C")
        ints = (ctypes.c_int64 * 3)(factor.shape[0], 1 if g.ndim == 1 else g.shape[1])
        i = ctypes.addressof(ints)
        self._dpotrs(b"L", i, i + 8, _address(factor.T), i, _address(b), i, i + 16, 1)
        return b.T, ints[2]


@cache
def _lapack() -> _Lapack:
    """The LAPACK binding, made on the first call in a process.

    Raises
    ------
    ImportError
        If numpy's BLAS library lacks one of the routines; the message
        names it.
    """
    return _Lapack(numpy_blas())


class NotPositiveDefiniteError(LinAlgError):
    """Raised when ``dpotrf`` finds a leading minor that is not positive
    definite; the message names its order.

    It derives from ``numpy.linalg.LinAlgError``, the class numpy raises
    for the same failure. Callers should run the offending matrix through
    :func:`pd_modify` and retry.
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


def check_symmetric(a: NDArray) -> NDArray:
    """Validate that ``a`` is a finite, exactly symmetric, square matrix.

    ``a`` is accepted only when ``a == a^T`` bit for bit, and is returned
    as given (as a float array, not copied): its producer made it
    symmetric, and nothing here repairs it.

    Raises
    ------
    ValueError
        If ``a`` is not square, is empty, contains non-finite entries, or
        differs from its transpose in any entry; the message names the
        pair with the largest gap.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        # finite entries of opposite sign near the float limit differ by inf
        with np.errstate(over="ignore"):
            gap = np.abs(a - a.T)
        i, j = np.unravel_index(np.argmax(gap), a.shape)
        raise ValueError(f"matrix is not symmetric: |A[{i},{j}] - A[{j},{i}]| = {gap[i, j]:.3e}")
    return a


def sym_eig(a: NDArray, vectors: bool = True) -> EigDecomposition:
    """Eigendecomposition of an exactly symmetric matrix.

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
        w, info = _lapack().dsyevr(a)
        if info != 0:
            raise LinAlgError(f"dsyevr failed with info={info}")
        return EigDecomposition(w, None)
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

    The smallest eigenvalue is computed first, on its own, by the
    eigensolve that also refuses an ``h_hat`` that is not exactly
    symmetric. When it is at least ``mu_tilde``, ``|h_hat| = h_hat`` needs
    no shift, and a copy of the input is returned with no eigenvectors and
    no rebuild. That copy is exact, where the rebuild ``U diag(vals) U^T``
    carries rounding in its last bits. Any other matrix pays for that
    one-eigenvalue solve on top of the full decomposition; :func:`spd_solve`
    validates the result again, as it does every matrix.

    Returns
    -------
    (h_tilde, was_shifted)
        ``was_shifted`` is False exactly when ``lambda_min(|h_hat|) >=
        mu_tilde``, in which case ``h_tilde`` is ``|h_hat|`` unchanged.
    """
    if not mu_tilde > 0:
        raise ValueError(f"mu_tilde must be positive, got {mu_tilde}")
    h = np.asarray(h_hat, dtype=float)
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


def spd_solve(h: NDArray, g: NDArray, work: Optional[NDArray] = None) -> NDArray:
    """Solve ``H x = g`` for symmetric positive-definite ``H`` via Cholesky.

    ``g`` may be a vector or a matrix of stacked right-hand sides. LAPACK
    ``dpotrf``/``dpotrs`` are called through :func:`_lapack` with the
    arguments scipy's ``cho_factor``/``cho_solve`` pass them; the factor
    has the bits of ``np.linalg.cholesky(h)``, which runs the same
    ``dpotrf``. Neither ``h`` nor ``g`` is overwritten.

    ``work``, when given, is a C-ordered float array of ``h``'s shape that
    the factorization overwrites in place of an array of its own: a caller
    that hands the solve to another thread makes it, so that thread
    allocates no copy of ``h``.

    Raises
    ------
    NotPositiveDefiniteError
        If the factorization fails; the caller should :func:`pd_modify`
        first.
    ValueError
        If ``g`` is not a vector or matrix with as many rows as ``h``, or
        ``work`` is not a C-ordered float array of ``h``'s shape.
    """
    h = check_symmetric(h)
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != h.shape[0]:
        raise ValueError(f"right-hand side of shape {g.shape} does not fit a matrix of shape {h.shape}")
    if work is not None and (work.shape != h.shape or work.dtype != float or not work.flags.c_contiguous):
        raise ValueError(f"work must be a C-ordered float array of shape {h.shape}")
    lapack = _lapack()
    factor, info = lapack.dpotrf(h, work)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"Cholesky factorization failed at leading minor {info}; matrix is not positive definite"
        )
    if info < 0:
        raise LinAlgError(f"dpotrf: illegal value in argument {-info}")
    x, info = lapack.dpotrs(factor, g)
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
