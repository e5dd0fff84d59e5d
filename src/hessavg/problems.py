"""Finite-sum problem oracles.

Three problems share one oracle interface: a masked quadratic (an
expectation problem where each "component" is a fresh random mask draw),
l2-regularized logistic regression over a dataset, and a small synthetic
strongly convex finite sum used as a convergence-rate testbed. Each
oracle gives full losses and gradients, a batch's loss and gradient from
one call (:meth:`~FiniteSumOracle.loss_grad_sub`), per-component gradients
for the approximate norm test's variance, batch Hessian-vector products
and dense batch Hessians, batch draws, and the optimum where it is known.
Each oracle assembles its dense Hessian as one rank-k product ``B^T B``,
which numpy hands to BLAS ``syrk``: half the flops of a general product,
and exactly symmetric with no symmetrization pass.

Each one-key bound on a config key is written once, as a row of
:data:`BOUNDS`: an :class:`Interval` with its closed ends marked, a set of
:class:`Choices`, or ``freq``'s "nonzero". :func:`check_args` applies it on
entry to :func:`quadratic_generate`, :class:`QuadraticProblem`,
:func:`make_synthetic_logistic`, :meth:`SyntheticSumProblem.generate` and
:class:`SyntheticSumProblem`, to ``data.load_dataset``'s ``split_seed``, to
each class built from a config section (``harness.ExperimentConfig``,
``optimizers.MethodSpec`` and the schedules, ``averaging``'s update policy
and the variant of ``FullAverageState``, and ``sampling``'s controller and
samplers), and at load to each section the config readers take, the
section named. So a config and a direct call refuse a value in the same
words. Rules that span keys stay with the class they bind. Seeded draws take
their generator from :func:`hessavg.rng.generator`.

All oracles are immutable after construction, apart from the optimum,
which is computed on the first :meth:`~FiniteSumOracle.optimum` call and
cached. Anything random (mask draws, batch index draws) is driven by an
explicit ``numpy.random.Generator`` passed by the caller, so concurrent
evaluation with independent streams is safe.

A finite-sum oracle's draw of every component is the full sum: both draw
their batches through :func:`_draw_indices`, whose draw of all ``n``
components is ``np.arange(n)``, made without touching the generator, and
:meth:`~FiniteSumOracle.loss_grad_sub` on ``np.arange(n)`` returns
``(loss_full(w), grad_full(w))`` bit for bit. A step whose batch is the
whole sum so reads its full gradient from its batch call.

Full values never read a gathered copy of all rows. The logistic oracle's
full gradient streams over ``X`` in place, in row blocks that stay in
cache; its batch values gather their rows in the same blocks, so all its
sums round as blocked sums (see :class:`LogisticProblem`). The synthetic
sum's full values come from its stored mean ``H̄`` and ``b̄`` and one flat
pass over the ripple directions, so no full value reads the N component
Hessians; a batch that holds every component exactly once has those full
values (see :class:`SyntheticSumProblem`). The synthetic sum stores each
exactly symmetric component Hessian as its packed upper triangle: its one
large array holds N·d(d+1)/2 values. Its build adds reused buffers of
``2·_CHUNK`` matrices in all, two for each thread that shares its norm
screen and its conjugation (see :func:`_shared_chunks`), and every other
temporary of the build or of a batch read holds at most ``_CHUNK``
matrices.

The logistic link is computed with numpy, so this module imports no scipy.
Of the three oracles only the synthetic sum factors a matrix, in the Newton
refinement of its optimum (:func:`~hessavg.linalg.spd_solve`, which runs
``dpotrf`` and ``dpotrs`` in numpy's OpenBLAS). A logistic row's gradient
coefficient is ``-y / (1 + exp(z))``, which is ``-y·σ(-z)`` with its
relative accuracy kept in the tail, where ``1 - σ(z)`` rounds to 0 once
``z`` passes about 37. Its curvature weight ``σ(z)(1 - σ(z))`` is
``e / (1 + e)²`` with ``e = exp(-|z|)``, which cannot overflow. ``exp(z)``
overflows to ``inf`` above ``z`` of about 709, where the coefficient rounds
to 0 anyway; that overflow is expected and silenced.
"""

from __future__ import annotations

import math
import os
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .linalg import spd_solve
from .rng import generator

__all__ = [
    "FiniteSumOracle",
    "MaskSample",
    "QuadraticProblem",
    "quadratic_generate",
    "default_spectrum",
    "LogisticProblem",
    "SyntheticSumProblem",
    "make_synthetic_logistic",
    "pass_threads",
    "BOUNDS",
    "check_args",
]


class FiniteSumOracle(ABC):
    """Uniform interface over finite-sum / expectation problems.

    A *sample* is whatever :meth:`draw_sample` returns: an index array for
    finite-sum problems, a :class:`MaskSample` for the masked quadratic.
    ``n_components`` is ``None`` for expectation problems, where sampling
    is unbounded.

    A batch's loss and gradient have one source, :meth:`loss_grad_sub`. A
    caller that wants only the gradient reads ``loss_grad_sub(w, sample)[1]``.
    On a finite sum of ``n`` components, ``draw_sample(rng, n)`` is
    ``np.arange(n)``, drawn without touching ``rng``, and
    ``loss_grad_sub(w, np.arange(n))`` is ``(loss_full(w), grad_full(w))``
    bit for bit: a batch of every component needs no second, full pass.
    :meth:`component_grads` serves the approximate norm test's variance;
    its rows' mean is the batch gradient up to rounding.
    """

    n_components: Optional[int]
    dim: int

    @abstractmethod
    def loss_full(self, w: NDArray) -> float: ...

    @abstractmethod
    def grad_full(self, w: NDArray) -> NDArray: ...

    @abstractmethod
    def loss_grad_sub(self, w: NDArray, sample) -> tuple[float, NDArray]:
        """Batch loss and gradient at ``w`` over ``sample``, in one call
        that computes the work the two share (margins, residuals, ``H_i w``)
        once."""

    @abstractmethod
    def component_grads(self, w: NDArray, sample) -> NDArray:
        """Per-component gradients for ``sample``, stacked as rows."""

    @abstractmethod
    def hvp_sub(self, w: NDArray, sample, v: NDArray) -> NDArray:
        """Subsampled Hessian applied to ``v`` (a vector or stacked columns)."""

    @abstractmethod
    def draw_sample(self, rng: np.random.Generator, size: int): ...

    @abstractmethod
    def hessian_sub(self, w: NDArray, sample) -> NDArray:
        """Dense subsampled Hessian, exactly symmetric."""

    def optimum(self) -> Optional[tuple[NDArray, float]]:
        """Known minimizer and optimal value, when available."""
        return None


def _draw_indices(rng: np.random.Generator, size: int, n: int) -> NDArray:
    """``size`` distinct indices into ``range(n)``; at ``size == n``,
    ``np.arange(n)`` without drawing: on both finite-sum oracles that
    batch's values are the full values bit for bit."""
    if not 1 <= size <= n:
        raise ValueError(f"sample size {size} out of range [1, {n}]")
    if size == n:
        return np.arange(n)
    return rng.choice(n, size=size, replace=False)


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
# Bounds of config keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """The numbers from ``lo`` to ``hi``, each end in it where its flag says;
    ``hi`` of inf is no upper bound. NaN is in none: each end's test is
    false for it."""

    lo: float
    hi: float = math.inf
    lo_closed: bool = True
    hi_closed: bool = True

    def __contains__(self, value) -> bool:
        above = self.lo <= value if self.lo_closed else self.lo < value
        return above and (value <= self.hi if self.hi_closed else value < self.hi)

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>=' if self.lo_closed else '>'} {self.lo}"
        return f"in {'[' if self.lo_closed else '('}{self.lo}, {self.hi}{']' if self.hi_closed else ')'}"


class Choices(tuple):
    """The strings a key may name."""

    def __str__(self) -> str:
        return " or ".join(map(repr, self))


class _Nonzero:
    """Every number but 0; NaN is not in it."""

    def __contains__(self, value) -> bool:
        return abs(value) > 0

    def __str__(self) -> str:
        return "nonzero"


# The one bound of each config key that has one, grouped by bound; a row's
# test and its words both come from it (see the module docstring for who
# applies it).
BOUNDS = {
    **dict.fromkeys(("n", "n_components", "d", "n_ripples", "rank", "hf", "trace_interval", "iters_per_epoch", "cap",
                     "epochs_per_block", "size", "initial_size", "sizes"), Interval(1)),
    **dict.fromkeys(("seed", "split_seed", "curvature", "k_switch", "warmup", "rolling_f", "epochs", "theta", "theta_l",
                     "iota0", "eps", "adam_eps"), Interval(0)),
    **dict.fromkeys(("mu_tilde", "alpha", "alpha0", "alpha_global", "alpha_local", "factor"), Interval(0, lo_closed=False)),
    **dict.fromkeys(("beta1", "beta2", "decay"), Interval(0, 1, lo_closed=False, hi_closed=False)),
    **dict.fromkeys(("coupling", "a", "a_l"), Interval(0, 1, hi_closed=False)),
    "keep_prob": Interval(0, 1, lo_closed=False),
    "freq": _Nonzero(),
    "variant": Choices(("plain", "abs")),
    "a_mode": Choices(("identity", "inverse_hessian")),
}


def check_args(where: str = "", **args) -> None:
    """Refuse, with a ValueError, the first of ``args`` outside its row of
    :data:`BOUNDS` ("'d' must be >= 1, got 0", ``where`` following the key;
    each entry of a tuple is checked), then a coupled synthetic sum of fewer
    than two components: centring makes a lone ``G`` zero. An argument the
    table does not name passes. A None is checked as any value is, so a
    caller leaves out an optional key that is unset."""
    for key, value in args.items():
        row = BOUNDS.get(key)
        for entry in value if isinstance(value, tuple) else (value,):
            if row is not None and entry not in row:
                shown = repr(entry) if isinstance(entry, str) else entry
                raise ValueError(f"{key!r}{where} must be {row}, got {shown}")
    if args.get("coupling", 0) > 0 and args["n_components"] < 2:
        raise ValueError(f"coupling={args['coupling']}{where} needs n_components >= 2, got n_components={args['n_components']}")


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
        check_args(keep_prob=keep_prob)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.keep_prob = float(keep_prob)
        self.dim = self.a.shape[0]
        self.n_components = None
        self._optimum: Optional[tuple[NDArray, float]] = None

    # -- sampling ----------------------------------------------------------

    def draw_sample(self, rng: np.random.Generator, size: int) -> MaskSample:
        if size < 1:
            raise ValueError(f"sample size {size} must be >= 1")
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

    def component_grads(self, w: NDArray, sample: MaskSample) -> NDArray:
        r = self._residuals(w, sample)
        return 2.0 * (sample.a_keep * r) @ self.a

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
        # 2 A^T diag(mean_keep) A as B^T B: one syrk, exactly symmetric.
        mean_keep = np.mean(sample.a_keep, axis=0)
        b = np.sqrt(2.0 * mean_keep)[:, None] * self.a
        return b.T @ b

    # -- expectation oracle ---------------------------------------------------

    def loss_full(self, w: NDArray) -> float:
        p = self.keep_prob
        aw = self.a @ w
        return float(p * aw @ aw - 2 * p * p * aw @ self.b + p * self.b @ self.b)

    def grad_full(self, w: NDArray) -> NDArray:
        p = self.keep_prob
        return 2.0 * self.a.T @ (p * (self.a @ w) - p * p * self.b)

    def optimum(self) -> tuple[NDArray, float]:
        if self._optimum is None:
            w_star = self.keep_prob * np.linalg.solve(self.a, self.b)
            w_star.flags.writeable = False
            self._optimum = (w_star, self.loss_full(w_star))
        return self._optimum


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
    check_args(d=d, keep_prob=keep_prob, seed=seed)
    lam = np.asarray(spectrum(np.arange(1, d + 1)), dtype=float)
    if np.any(lam <= 0):
        raise ValueError("spectrum must be strictly positive")
    rng = generator(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(d)
    return QuadraticProblem(a, b, keep_prob)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------


# Bytes of X per block of the logistic oracle's blocked pass. A block must
# stay in the L2 cache of the core that runs it between its margins and its
# gradient sums; a pass runs up to one block per core at once (see
# LogisticProblem). The 2-core AMD EPYC (Zen 5) the benchmark now runs on
# has 1 MiB of L2 per core and a 32 MiB L3 that both cores share. The size
# was chosen on a 2-core Xeon with 2 MiB of L2: for n=20000, d=300 and a
# batch of 4096 on one BLAS thread, 512 KiB and 1 MiB tied; 256 KiB (more
# blocks, more per-block overhead) and 2 MiB (a block filling L2) ran about
# 10% slower. The size sets where the blocked sums round: changing it moves
# the bits of every pass over more than one block.
_BLOCK_BYTES = 1 << 19


def pass_threads() -> int:
    """Threads a logistic pass, full or gathered, a coupled synthetic sum's
    norm screen and conjugation, and a plain average's precondition (its
    floor test and its solve, see ``averaging.FullAverageState``) may use in
    this process: one per CPU the process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _pass_pool():
    """The process's queue of runs for the threads a shared pass adds to its
    caller (see :func:`_share_runs`), served by ``pass_threads() - 1``
    daemon threads, at least one, started on the first pass that shares its
    work. (A ``ThreadPoolExecutor``, and its import, cost about 0.4 MB more
    peak memory.)"""
    from queue import SimpleQueue

    tasks = SimpleQueue()
    for _ in range(max(1, pass_threads() - 1)):
        threading.Thread(target=_serve_runs, args=(tasks,), name="hessavg-pass", daemon=True).start()
    return tasks


def _serve_runs(tasks) -> None:
    """Run each ``(work, k, run, done)`` taken from ``tasks`` as ``work(k, run)``
    and put ``(k, error)`` on ``done`` when it ends, ``error`` None unless it
    raised; a ``None`` task ends the thread."""
    while (task := tasks.get()) is not None:
        work, k, run, done = task
        error = None
        try:
            work(k, run)
        except BaseException as raised:  # handed to the caller, which raises it
            error = raised
        # an idle thread holding its last work kept that pass's arrays alive
        del task, work, run
        done.put((k, error))
        del done, error


# A forked child has none of its parent's pool threads, and a pass handed to
# the inherited pool would wait forever: the child makes a pool of its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pass_pool.cache_clear)


def _share_runs(work, items: int, threads: int) -> None:
    """Call ``work(k, run)`` for each of up to ``threads`` contiguous runs of
    ``range(items)``, no more than items, split as ``np.array_split`` splits
    (the first ``items % runs`` one longer): run ``k`` = 0 on the calling
    thread, the others on :func:`_pass_pool`.

    Every run ends before this returns, also when the caller's run raises;
    then the caller's error, or else the first failed run's, is raised.
    """
    runs = max(1, min(threads, items))
    size, longer = divmod(items, runs)
    starts = [k * size + min(k, longer) for k in range(runs + 1)]
    first, *rest = (range(lo, hi) for lo, hi in zip(starts, starts[1:]))
    if rest:
        from queue import SimpleQueue

        done = SimpleQueue()
        for k, run in enumerate(rest, 1):
            _pass_pool().put((work, k, run, done))
    try:
        work(0, first)
    finally:
        ended = sorted(done.get() for _ in rest) if rest else []
    for _, error in ended:
        if error is not None:
            raise error


class LogisticProblem(FiniteSumOracle):
    """l2-regularized logistic regression over dense features.

    Component ``i`` is ``log(1 + exp(-y_i w.x_i)) + ||w||^2 / (2n)``; the
    full objective is their mean. Labels must be +-1. The regularizer
    makes every subsampled Hessian at least ``I / n``, so ``mu = 1/n``.

    :meth:`grad_full` and :meth:`loss_grad_sub` make one pass,
    :meth:`_blocked_pass`, in blocks of whole groups of 8 rows,
    ``_BLOCK_BYTES`` of ``X`` each, and finish a block's margins and its
    coefficient sum while the block is in cache. The full gradient reads
    ``X`` in place. A batch gathers its rows a block at a time, into one
    block-sized buffer per thread, so a large batch never holds a copy of
    all its rows; a repeated index is gathered, and counted, once per
    occurrence.

    The blocked margins equal those of ``X @ w``. The blocked sums can
    differ in the last bits from one product over all the rows; a batch
    that fits in one block sums as one product. The gathered pass over
    every row in order adds the same blocks in the same order as
    :meth:`grad_full`, so its batch loss and gradient are the full ones bit
    for bit, as the draw of every row (``np.arange(n)``) needs.

    A pass of two or more blocks, full or gathered, shares them among
    threads, one per CPU the process may run on (:func:`pass_threads`) and
    no more than blocks, from one pool per process: each thread takes one
    contiguous run of blocks, the calling thread the first. A gather waits
    on memory, so a second core shortens it: 4096 rows at d=300 took 0.80 ms
    on one thread of a 2-core Zen 5 and 0.47 ms on two. The full pass at
    n=20000, d=300 took 18-25% less on two threads of a 2-core Xeon. Each
    block writes its margins into its slice and its coefficient sum into a
    row of its own, and the caller adds those rows in block order, as one
    thread would: the bits do not depend on the thread count.

    A block's two products are ``np.dot`` calls: ``np.dot`` releases the GIL
    for its BLAS call and returns the bits of ``@``, while ``@`` on numpy
    2.4 holds the GIL throughout, so the threads' products never ran at
    once. The full pass gains; a gathered pass, whose products read a
    block already in cache, ran about 5% slower between other work, its
    GIL handoffs costing more than its products gain.
    """

    def __init__(self, x: NDArray, y: NDArray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (n, d) with matching labels")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be in {-1, +1}")
        if 0 in x.shape:
            raise ValueError(f"empty dataset: x has shape {x.shape}")
        # C order, so the in-place full passes see the same layout as a
        # gathered batch and round identically.
        self.x = np.ascontiguousarray(x)
        self.y = y
        self.n = x.shape[0]
        self.dim = x.shape[1]
        self.n_components = self.n
        # Whole groups of 8 rows, so that the BLAS kernels' row unrolling
        # splits each block as it splits the whole X: the blocked margins
        # then round as ``X @ w`` does.
        self._block_rows = max(8, _BLOCK_BYTES // self.x[0].nbytes // 8 * 8)

    def draw_sample(self, rng: np.random.Generator, size: int) -> NDArray:
        return _draw_indices(rng, size, self.n)

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

    @staticmethod
    def _coeff(ys: NDArray, z: NDArray) -> NDArray:
        """``d/dz_i`` of the loss terms, times ``y_i``: row ``i``'s gradient is this times ``x_i``.

        ``-y σ(-z)``; ``exp(z)`` may overflow to ``inf``, giving 0, so a
        caller runs it under ``np.errstate(over="ignore")``.
        """
        return -ys / (1.0 + np.exp(z))

    @staticmethod
    def _weight(z: NDArray) -> NDArray:
        """``σ(z)(1 - σ(z))``, the curvature of a loss term in its margin."""
        e = np.exp(-np.abs(z))
        return e / (1.0 + e) ** 2

    def _blocked_pass(self, w: NDArray, idx: Optional[NDArray] = None) -> tuple[NDArray, NDArray]:
        """Margins of the rows ``idx`` and their coefficient sum ``sum_i c_i x_i``,
        with ``c_i`` from :meth:`_coeff`, one block of rows at a time: each
        block's margins and sum are computed while it is in cache.
        ``idx=None`` reads every row of ``X`` in place; otherwise each block's
        rows are gathered, once per occurrence of an index. Either way,
        contiguous runs of blocks go to up to :func:`pass_threads` threads,
        the first run to the caller. The block sums are added in block
        order."""
        m = self.n if idx is None else idx.size
        z = np.empty(m)
        sums = np.empty((-(-m // self._block_rows), self.dim))
        _share_runs(lambda _, run: self._pass_blocks(w, idx, z, sums, run), len(sums), pass_threads())
        total = np.zeros(self.dim)
        for row in sums:
            total += row
        return z, total

    def _pass_blocks(self, w: NDArray, idx: Optional[NDArray], z: NDArray, sums: NDArray, blocks: range) -> None:
        """For each block ``k`` in ``blocks``, fill its slice of the margins ``z``
        and its coefficient sum ``sums[k]``. Gathered blocks are copied into
        one buffer: a fresh block-sized array for each block cost about a
        third of a 4096-row pass, with 221 minor page faults where the buffer
        takes none."""
        gathered = None if idx is None else np.empty((min(self._block_rows, idx.size), self.dim))
        # numpy's error state is per thread
        with np.errstate(over="ignore"):
            for k in blocks:
                block = slice(k * self._block_rows, (k + 1) * self._block_rows)
                if idx is None:
                    xb, yb = self.x[block], self.y[block]
                else:
                    rows = idx[block]
                    # "clip" writes into the buffer directly; the indices are checked
                    xb = np.take(self.x, rows, axis=0, out=gathered[: rows.size], mode="clip")
                    yb = self.y[rows]
                zb = z[block]
                np.multiply(yb, np.dot(xb, w), out=zb)
                np.dot(self._coeff(yb, zb), xb, out=sums[k])

    def loss_grad_sub(self, w: NDArray, sample: NDArray) -> tuple[float, NDArray]:
        idx = _check_indices(sample, self.n)
        z, total = self._blocked_pass(w, idx)
        return self._loss_of(w, z), total / idx.size + w / self.n

    def component_grads(self, w: NDArray, sample: NDArray) -> NDArray:
        xs, ys, z = self._margins(w, sample)
        with np.errstate(over="ignore"):
            coeff = self._coeff(ys, z)
        return coeff[:, None] * xs + w / self.n

    def hvp_sub(self, w: NDArray, sample: NDArray, v: NDArray) -> NDArray:
        xs, ys, z = self._margins(w, sample)
        weight = self._weight(z)
        xv = xs @ v
        if xv.ndim == 1:
            return xs.T @ (weight * xv) / ys.size + v / self.n
        return xs.T @ (weight[:, None] * xv) / ys.size + v / self.n

    def hessian_sub(self, w: NDArray, sample: NDArray) -> NDArray:
        # X_S^T diag(s(1-s)) X_S / m as B^T B: one syrk, exactly symmetric.
        xs, ys, z = self._margins(w, sample)
        b = np.sqrt(self._weight(z) / ys.size)[:, None] * xs
        h = b.T @ b
        h[np.diag_indices(self.dim)] += 1.0 / self.n
        return h

    def loss_full(self, w: NDArray) -> float:
        return self._loss_of(w, self._margins(w, None)[2])

    def grad_full(self, w: NDArray) -> NDArray:
        return self._blocked_pass(w)[1] / self.n + w / self.n


# Standard deviation of the Gaussian noise on a synthetic logistic row's logit.
_LOGISTIC_NOISE = 0.4


def make_synthetic_logistic(n: int = 400, d: int = 12, seed: int = 0) -> tuple[NDArray, NDArray]:
    """Generate a linearly separable-ish logistic dataset for offline tests."""
    check_args(n=n, d=d, seed=seed)
    rng = generator(seed)
    x = rng.standard_normal((n, d))
    w_true = rng.standard_normal(d)
    logits = x @ w_true + _LOGISTIC_NOISE * rng.standard_normal(n)
    y = np.where(logits >= 0, 1.0, -1.0)
    return x, y


# ---------------------------------------------------------------------------
# Synthetic strongly convex finite-sum testbed
# ---------------------------------------------------------------------------


# Matrices per chunk wherever the synthetic sum works through its Hessian
# stack: the draw, the norm screen, the build, and the batch reads. Every
# temporary then holds at most this many d×d matrices, far below one copy of
# the stack at the bench's N=1024. The norm screen and the build share them
# among their threads (see _shared_chunks).
_CHUNK = 64


def _chunks(n: int, size: int = _CHUNK) -> list[slice]:
    """``range(n)`` as consecutive slices of ``size`` items, the last shorter."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


@cache
def _triu_maps(d: int) -> tuple[NDArray, NDArray, NDArray]:
    """Flat index maps between d×d matrices and their packed upper triangles.

    The first picks the entries ``(i, j)``, ``i <= j``, of a flattened
    matrix in ``np.triu_indices`` order, LAPACK's packed-symmetric layout;
    the second picks their mirrors ``(j, i)`` in the same order; the third
    gives each entry of a flattened matrix its packed position, the same
    for ``(i, j)`` and ``(j, i)``. They stay writeable: ``np.take`` copies a
    read-only index array on every call.
    """
    rows, cols = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return rows * d + cols, cols * d + rows, pos.ravel()


def _pack(mats: NDArray) -> NDArray:
    """The upper triangles of the d×d matrices ``mats`` (``(..., d, d)``), as ``(..., d(d+1)/2)``."""
    d = mats.shape[-1]
    return np.take(mats.reshape(*mats.shape[:-2], d * d), _triu_maps(d)[0], axis=-1)


def _unpack(packed: NDArray, d: int, out: Optional[NDArray] = None) -> NDArray:
    """The exactly symmetric d×d matrices whose upper triangles are ``packed``.

    ``out``, when given, is a C-ordered ``(..., d, d)`` array that receives
    them and is returned.
    """
    shape = (*packed.shape[:-1], d, d)
    if out is None:
        return np.take(packed, _triu_maps(d)[2], axis=-1).reshape(shape)
    # "clip" writes into ``out`` directly; the default "raise" would buffer.
    np.take(packed, _triu_maps(d)[2], axis=-1, out=out.reshape(*shape[:-2], d * d), mode="clip")
    return out


def _chunk_buffers(size: int, d: int) -> tuple[NDArray, NDArray]:
    """Two ``(size, d, d)`` buffers for a pass ``size`` matrices at a time."""
    return np.empty((size, d, d)), np.empty((size, d, d))


def _shared_chunks(n: int, d: int, work) -> None:
    """Call ``work(chunk, g, h)`` for each chunk of ``range(n)``, ``g`` and
    ``h`` two ``(len(chunk), d, d)`` buffers.

    Up to :func:`pass_threads` threads, no more than chunks, each take one
    contiguous run of chunks of ``_CHUNK // threads`` matrices (at least
    one), the caller the first (:func:`_share_runs`). Each thread's two
    buffers are allocated here, on the calling thread, so all of them hold
    at most ``2·_CHUNK`` matrices. A ``work`` that acts on each matrix
    alone has one thread's bits at any thread count.
    """
    threads = pass_threads()
    size = max(1, min(n, _CHUNK // threads))
    chunks = _chunks(n, size)
    buffers = [_chunk_buffers(size, d) for _ in range(max(1, min(threads, len(chunks))))]

    def run_chunks(k: int, run: range) -> None:
        g, h = buffers[k]
        for i in run:
            c = chunks[i]
            work(c, g[: c.stop - c.start], h[: c.stop - c.start])

    _share_runs(run_chunks, len(chunks), len(buffers))


def _max_spectral_norm(packed: NDArray, d: int) -> float:
    """``max(np.linalg.norm(g, 2) for g in _unpack(packed, d))`` bit for bit, from few SVDs.

    Each ``g`` is exactly symmetric, and its ``‖g‖₂`` must be far enough
    above 1e-38 that ``g⁸`` does not underflow. Then ``‖g‖₂⁸ ≤ ‖g⁸‖_F``,
    so three stacked squarings bound every matrix's norm from above, within
    a factor ``d^{1/16}``. The matrices are decomposed in descending order
    of bound until the next bound, times ``1 + 1e-6``, is below the largest
    norm so far. The rounding in the powers and in the SVD is orders of
    magnitude below that margin for d up to a few thousand, so every
    skipped matrix's computed norm is below that maximum, and the result is
    the same ``max`` over the same values. The squarings unpack and run a
    chunk at a time, the chunks shared among threads
    (:func:`_shared_chunks`), so the temporaries stay far below one copy of
    the stack.
    """
    squares = np.empty(packed.shape[0])

    def screen(c: slice, p: NDArray, q: NDArray) -> None:
        # ‖g⁸‖_F², summed as np.linalg.norm(g⁸, axis=(1, 2)) sums it
        _unpack(packed[c], d, out=p)
        np.matmul(p, p, out=q)
        np.matmul(q, q, out=p)
        np.matmul(p, p, out=q)
        np.add.reduce(np.multiply(q, q, out=p), axis=(1, 2), out=squares[c])

    _shared_chunks(packed.shape[0], d, screen)
    bounds = np.sqrt(squares) ** 0.125
    order = np.argsort(bounds)[::-1]
    top = np.linalg.norm(_unpack(packed[order[0]], d), 2)
    for i in order[1:]:
        if bounds[i] * (1 + 1e-6) < top:
            break
        top = max(top, np.linalg.norm(_unpack(packed[i], d), 2))
    return top


def _symmetrized_upper(g: NDArray, buf: NDArray, out: NDArray) -> None:
    """Write the packed ``0.5 (g + g^T)`` of the C-ordered matrices ``g``
    into the C-ordered rows ``out``: each upper entry ``g_ij`` plus its
    mirror ``g_ji``, times 0.5, which rounds as the whole formula does. The
    mirrors are gathered into ``buf``, and no step allocates an array."""
    up, mirror, _ = _triu_maps(g.shape[-1])
    low = buf.reshape(-1)[: out.size].reshape(out.shape)
    # "clip" writes into ``out`` directly, as in _unpack
    np.take(g.reshape(len(g), -1), up, axis=-1, out=out, mode="clip")
    np.take(g.reshape(len(g), -1), mirror, axis=-1, out=low, mode="clip")
    out += low
    out *= 0.5


def _symmetric_normals(rng: np.random.Generator, n: int, d: int) -> NDArray:
    """Packed ``0.5 (G_i + G_i^T)`` for ``G = rng.standard_normal((n, d, d))``.

    The ``G_i`` are drawn ``_CHUNK`` at a time into one buffer, on the
    calling thread, which reads the generator's stream in the same order as
    the one draw and so has its bits.
    """
    packed = np.empty((n, d * (d + 1) // 2))
    g_buf, h_buf = _chunk_buffers(min(_CHUNK, n), d)
    for c in _chunks(n):
        g = rng.standard_normal(out=g_buf[: c.stop - c.start])
        _symmetrized_upper(g, h_buf[: len(g)], packed[c])
    return packed


def _conjugate_in_place(packed: NDArray, root: NDArray, frame: NDArray) -> None:
    """Replace each packed ``G_i`` by the packed, symmetrized
    ``frame (root_j (I + G_i)_jk root_k) frame^T``, each with the bits of
    that formula on the matrix alone, a chunk at a time, the chunks shared
    among threads (:func:`_shared_chunks`)."""
    d = root.size
    # whole d×d factors, one matrix at a time: an in-place operation that
    # broadcasts over the chunk takes a 60 KB numpy iteration buffer
    eye, rows = np.eye(d), np.repeat(root[:, None], d, axis=1)
    cols, frame_t = np.ascontiguousarray(rows.T), frame.T

    def conjugate(c: slice, inner: NDArray, h: NDArray) -> None:
        _unpack(packed[c], d, out=inner)
        for g in inner:
            g += eye
            g *= rows
            g *= cols
        np.matmul(frame, inner, out=h)
        np.matmul(h, frame_t, out=inner)
        _symmetrized_upper(inner, h, packed[c])

    _shared_chunks(packed.shape[0], d, conjugate)


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
    iterations instead of collapsing within one sampling cycle. A negative
    ``curvature`` is refused.

    The full values come from the stored means ``H̄`` and ``b̄``: the full
    sum is itself one such component, with ``H̄``, ``b̄`` and all N·J
    ripples, each weighted ``1/(N·J)``. So a full loss or gradient reads no
    ``H_i``, only one flat pass over the ``(N·J, d)`` ripple directions. It
    rounds differently from the mean of the N component values.

    A batch that covers the sum, holding every component exactly once
    (``idx.size == N`` and no repeat), has the full values bit for bit,
    in any order; its dense Hessian and Hessian-vector products start from
    a copy of ``H̄``. Any other batch gathers its own ``m`` components.

    Each ``H_i`` is exactly symmetric, so the stack ``h`` holds only its
    upper triangle: ``h`` is ``(N, d(d+1)/2)``, row ``i`` the entries
    ``(j, k)``, ``j <= k``, of ``H_i`` in ``np.triu_indices`` order
    (LAPACK's packed-symmetric layout). :func:`_unpack` restores the
    matrices with the same bits. ``h`` is the one array of N·d(d+1)/2
    values, from :meth:`generate` through every oracle call: any other
    temporary holds at most ``_CHUNK`` matrices. A batch that does not
    cover the sum unpacks its ``H_i`` that many at a time into its
    ``(m, d)`` products ``H_i w``. A Hessian sample averages its batch's
    packed rows and unpacks that one mean. Two gathers stay whole: the
    packed rows of a batch's mean Hessian, and a batch's ``b_i`` and
    ``(m, J, d)`` ripple directions, 2J/(d+1) of its packed ``H_i``.
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
        self.h = np.ascontiguousarray(h, dtype=float)  # (N, d(d+1)/2), packed
        self.b = np.ascontiguousarray(b, dtype=float)  # (N, d)
        self.n_components, self.dim = self.b.shape
        if self.h.shape != (self.n_components, self.dim * (self.dim + 1) // 2):
            raise ValueError(
                f"h must be the packed upper triangles of {self.n_components} {self.dim}x{self.dim} "
                f"matrices, shape {(self.n_components, self.dim * (self.dim + 1) // 2)}, got {self.h.shape}"
            )
        check_args(curvature=curvature, freq=freq)
        self.curvature = float(curvature)
        self.freq = float(freq)
        if curvature > 0:
            if a is None:
                raise ValueError("curvature > 0 requires ripple directions")
            self.a_dirs = np.ascontiguousarray(a, dtype=float)  # (N, J, d)
            if self.a_dirs.ndim != 3:
                raise ValueError("ripple directions must have shape (N, J, d)")
            self.phases = (
                np.zeros(self.a_dirs.shape[:2]) if phases is None else np.ascontiguousarray(phases, dtype=float)
            )
        else:
            self.a_dirs = np.zeros((self.n_components, 1, self.dim))
            self.phases = np.zeros((self.n_components, 1))
        self._h_mean = _unpack(self.h.mean(axis=0), self.dim)
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

        The ``G_i`` are scaled by ``coupling / top``, where ``top`` is the
        largest ``np.linalg.norm(G_i, 2)``. :func:`_max_spectral_norm` finds
        it from a certified upper bound per matrix and decomposes only the
        matrices whose bound can reach the maximum: 1 to 10 of N=1024 at
        d=50 on seeds 0-19. It returns the same ``max`` over the same
        values, so ``top`` has the bits a loop over all N SVDs gives. A
        coupled sum needs at least two components: centring makes a lone
        ``G`` zero.

        The returned stack is packed (see the class docstring). Besides
        it, the build holds reused buffers of ``2·_CHUNK`` matrices in all,
        and any other temporary holds at most ``_CHUNK`` matrices. The
        ``G_i`` are drawn ``_CHUNK`` at a time into one buffer, on the
        calling thread, with the bits of one ``(N, d, d)`` draw, and their
        mirror entries gathered into the other before the symmetrized upper
        triangles are written into the stack. Centring and scaling act on
        the packed stack in place. The norm screen, and the build of each
        ``H_i`` in its ``G_i``'s row, unpack a chunk of matrices at a time
        and share the chunks among up to :func:`pass_threads` threads, two
        buffers of ``_CHUNK // threads`` matrices to each, allocated on the
        calling thread (see :func:`_shared_chunks`). Each step acts on each
        entry, or on each matrix, alone, with the bits of the whole-stack
        formulas, so the stack's bits do not depend on the thread count.
        The ripple directions and phases are drawn last, and only when
        ``curvature > 0``.
        """
        check_args(n_components=n_components, d=d, seed=seed, curvature=curvature, coupling=coupling,
                           freq=freq, n_ripples=n_ripples)
        rng = generator(seed)

        def random_frame() -> NDArray:
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            return q * np.sign(np.diag(r))

        if coupling > 0:
            lam = np.geomspace(eig_range[0], eig_range[1], d)
            frame = random_frame()
            hs = _symmetric_normals(rng, n_components, d)
            hs -= hs.mean(axis=0)
            top = _max_spectral_norm(hs, d)
            hs *= coupling / top
            _conjugate_in_place(hs, np.sqrt(lam), frame)
        else:
            hs = np.empty((n_components, d * (d + 1) // 2))
            for i in range(n_components):
                q = random_frame()
                m = (q * rng.uniform(*eig_range, size=d)) @ q.T
                hs[i] = _pack(0.5 * (m + m.T))
        b = rng.standard_normal((n_components, d))
        if not curvature > 0:
            return cls(hs, b, None, curvature, freq=freq)
        a = rng.standard_normal((n_components, n_ripples, d))
        a /= np.linalg.norm(a, axis=2, keepdims=True)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_components, n_ripples))
        return cls(hs, b, a, curvature, freq=freq, phases=phases)

    def draw_sample(self, rng: np.random.Generator, size: int) -> NDArray:
        return _draw_indices(rng, size, self.n_components)

    def _gather_indices(self, sample) -> Optional[NDArray]:
        """The checked indices a batch gathers, or ``None`` when it covers
        the sum: it holds every component exactly once, so its values are
        the full values and it gathers nothing."""
        idx = _check_indices(sample, self.n_components)
        if idx.size == self.n_components and np.bincount(idx).max() == 1:
            return None
        return idx

    def _ripples(self, w: NDArray, idx: Optional[NDArray]) -> tuple[NDArray, NDArray]:
        """Ripple arguments and directions of the components ``idx``, gathered,
        shaped ``(m, J)`` and ``(m, J, d)``; ``idx=None`` gives all N·J
        ripples, read in place and flattened to ``(N·J,)`` and ``(N·J, d)``."""
        if idx is None:
            a = self.a_dirs.reshape(-1, self.dim)
            return self.freq * (a @ w) + self.phases.reshape(-1), a
        a = self.a_dirs[idx]
        return self.freq * (a @ w) + self.phases[idx], a

    def _terms(self, w: NDArray, idx: Optional[NDArray]) -> tuple[NDArray, NDArray, Optional[NDArray], Optional[NDArray]]:
        """``H_i w``, ``b_i``, ripple arguments and ripple directions of the
        components ``idx``, gathered.

        ``idx=None`` gives the whole sum as one component with N·J ripples:
        ``H̄ w`` and ``b̄`` from the stored means, and the ripples of
        :meth:`_ripples`. No ``H_i`` is read. The ripple pair is ``None``
        unless ``curvature > 0``. The packed ``H_i`` of a batch are
        gathered and unpacked ``_CHUNK`` at a time, each ``H_i w`` its own
        product as in ``_unpack(self.h[idx], d) @ w``.
        """
        if idx is None:
            hw, b = self._h_mean @ w, self._b_mean
        else:
            hw, b = np.empty((idx.size, self.dim)), self.b[idx]
            for c in _chunks(idx.size):
                np.matmul(_unpack(self.h[idx[c]], self.dim), w, out=hw[c])
        if self.curvature <= 0:
            return hw, b, None, None
        return (hw, b, *self._ripples(w, idx))

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

    def _mean_grad(self, terms: tuple) -> NDArray:
        """Mean gradient over the components of ``terms``.

        The whole sum's terms (a 1-D ``H̄ w``) are one component already;
        their ripple sum is one matrix-vector product over the flat
        directions.
        """
        hw, b, t, a = terms
        if hw.ndim == 2:
            return self._grads_of(terms).mean(axis=0)
        grad = hw - b
        if t is not None:
            grad = grad + (self.curvature / (self.freq * t.size)) * (np.tanh(t) @ a)
        return grad

    def component_grads(self, w: NDArray, sample) -> NDArray:
        return self._grads_of(self._terms(w, _check_indices(sample, self.n_components)))

    def loss_grad_sub(self, w: NDArray, sample) -> tuple[float, NDArray]:
        terms = self._terms(w, self._gather_indices(sample))
        return self._loss_of(w, terms), self._mean_grad(terms)

    def _hessian_terms(self, w: NDArray, sample) -> tuple[NDArray, Optional[NDArray], Optional[NDArray]]:
        """Mean of the batch's ``H_i`` as a fresh array, and the batch's
        ripple arguments and directions shaped ``(m, J)`` and ``(m, J, d)``
        (``None`` unless ``curvature > 0``). The mean is taken over the
        packed rows, entry by entry as over the matrices, and unpacked
        once. A batch that covers the sum starts from a copy of ``H̄`` and
        takes all N·J ripples as one component."""
        idx = self._gather_indices(sample)
        h = self._h_mean.copy() if idx is None else _unpack(self.h[idx].mean(axis=0), self.dim)
        if self.curvature <= 0:
            return h, None, None
        t, a = self._ripples(w, idx)
        if idx is None:
            t, a = t[None], a[None]
        return h, t, a

    def hvp_sub(self, w: NDArray, sample, v: NDArray) -> NDArray:
        h, t, a = self._hessian_terms(w, sample)
        out = h @ v
        if t is not None:
            with np.errstate(over="ignore"):
                sech2 = 1.0 / np.cosh(t) ** 2  # underflows to 0 for large |t|
            scale = self.curvature / t.size
            av = np.einsum("mjd,d...->mj...", a, v)
            out = out + scale * np.einsum("mj,mj...,mjd->d...", sech2, av, a)
        return out

    def hessian_sub(self, w: NDArray, sample) -> NDArray:
        # The ripple Hessian sum_ij scale sech^2(t_ij) a_ij a_ij^T is B^T B
        # for the (m J, d) stack of rows sqrt(scale) sech(t_ij) a_ij: one
        # syrk, exactly symmetric, and the mean of the exactly symmetric H_i
        # stays so.
        h, t, a = self._hessian_terms(w, sample)
        if t is not None:
            with np.errstate(over="ignore"):
                sech = 1.0 / np.cosh(t)  # underflows to 0 for large |t|
            scale = self.curvature / t.size
            b = ((np.sqrt(scale) * sech)[..., None] * a).reshape(-1, self.dim)
            h += b.T @ b
        return h

    def loss_full(self, w: NDArray) -> float:
        return self._loss_of(w, self._terms(w, None))

    def grad_full(self, w: NDArray) -> NDArray:
        return self._mean_grad(self._terms(w, None))

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
