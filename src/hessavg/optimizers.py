"""Optimizer step loop and the (alpha, theta, iota) schedule machinery.

Seven methods share one step function: plain stochastic gradient (sgd),
adam, subsampled Newton without averaging (subnewton), fully-averaged
Newton (fan), diagonally-averaged Newton with l1 or l2 averaging (dan,
dan2), and adahessian. Every method but sgd keeps its curvature estimate
in one averaging state: subnewton is the full-matrix average that keeps
only the newest Hessian, and adam's second moment is a diagonal average
of squared gradients. adam's and adahessian's first moment is the same
bias-corrected EMA, an ``averaging._Accumulator``. Each state holds its
floor, which :func:`init_state` alone picks: ``mu_tilde`` (fan, subnewton),
``eps`` (dan, dan2) or ``adam_eps``. Each iteration: the controller fixes
the gradient batch, the update policy optionally refreshes the Hessian
estimate, the method turns the batch gradient into a direction, the norm
test (its rule written once, in :func:`_run_controller`) may grow the next
batch, and the iterate moves by the scheduled step size.

A step makes one batch call, ``loss_grad_sub``. The full gradient that its
trace snapshot or exact test reads is that call's gradient when the batch
is every component, and ``grad_full`` otherwise: a finite-sum oracle's
draw of all ``n`` components is ``np.arange(n)``, and its batch values on
that draw are the full ones bit for bit.

Runs that blow up (a non-finite batch loss, a batch loss exceeding a fixed
multiple of the starting value, or a non-finite iterate) are halted rather
than raising, and their state says which of the three stopped them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np
from numpy.typing import NDArray

from .averaging import (
    DiagAverageState,
    FullAverageState,
    UpdateFrequencyPolicy,
    _Accumulator,
    hutchinson_diag,
)
# Unused here; kept because bench/test_bench.py reads ``optimizers.pd_modify``.
from .linalg import pd_modify  # noqa: F401
from .problems import FiniteSumOracle
from .sampling import CyclicSampler, GradSampleController, IidSampler, approx_norm_terms, exact_norm_terms
from .trace import TraceRecord

__all__ = [
    "METHODS",
    "MethodSpec",
    "AlphaConstant",
    "AlphaTwoPhase",
    "AlphaStepDecay",
    "ThetaConstant",
    "ThetaLocalDet",
    "ThetaLocalStoch",
    "IotaGeometric",
    "IotaSuperDet",
    "IotaSuperStoch",
    "ScheduleSet",
    "schedule_eval",
    "eec",
    "OptState",
    "RunContext",
    "init_state",
    "step",
    "run",
]

METHODS = {  # each method and the ``MethodSpec`` fields it reads
    "sgd": (),
    "adam": ("beta1", "beta2", "adam_eps"),
    "subnewton": ("mu_tilde", "variant"),
    "fan": ("mu_tilde", "variant", "decay"),
    "dan": ("rank", "eps", "decay"),
    "dan2": ("rank", "eps", "decay"),
    "adahessian": ("rank", "beta1", "beta2", "adam_eps"),
}
FULL_HESSIAN_DIM_LIMIT = 2048
DIVERGENCE_FACTOR = 1e6


# ---------------------------------------------------------------------------
# Method specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """A method tag plus its hyperparameters.

    A config sets ``name`` and only the fields :data:`METHODS` lists for it:
    sgd none; adam the betas and ``adam_eps``; subnewton ``mu_tilde`` and
    ``variant``; fan those and ``decay`` (None: uniform averaging); dan and
    dan2 ``rank``, ``eps`` and ``decay``; adahessian ``rank``, the betas and ``adam_eps``.
    """

    name: str
    mu_tilde: float = 1e-4
    variant: str = "plain"  # fan/subnewton: "plain" (spectral modification) or "abs"
    decay: Optional[float] = None  # fan/dan/dan2 averaging: None is uniform
    rank: int = 1
    eps: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; expected one of {tuple(METHODS)}")
        if self.variant not in ("plain", "abs"):
            raise ValueError(f"variant must be 'plain' or 'abs', got {self.variant!r}")
        if not self.mu_tilde > 0:
            raise ValueError("mu_tilde must be positive")
        if not self.rank >= 1:
            raise ValueError("rank must be >= 1")
        if not (self.eps >= 0 and self.adam_eps >= 0):
            raise ValueError("eps values must be nonnegative")
        for b in (self.beta1, self.beta2, self.decay):
            if b is not None and not 0 < b < 1:
                raise ValueError("beta/decay parameters must lie in (0, 1)")

    @property
    def uses_full_hessian(self) -> bool:
        return self.name in ("fan", "subnewton")

    @property
    def keeps_hessian(self) -> bool:
        return self.name not in ("sgd", "adam")


# ---------------------------------------------------------------------------
# Schedules: each one's fields are its config keys, and a field's default is
# the value a config that omits the key gets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaConstant:
    alpha: float = 0.1

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def at(self, k: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class AlphaTwoPhase:
    """Cautious global step switching to unit steps at ``k_switch``."""

    alpha_global: float
    k_switch: int
    alpha_local: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha_global > 0:
            raise ValueError("alpha_global must be positive")
        if not self.alpha_local > 0:
            raise ValueError("alpha_local must be positive")
        if self.k_switch < 0:
            raise ValueError("k_switch must be nonnegative")

    def at(self, k: int) -> float:
        return self.alpha_local if k >= self.k_switch else self.alpha_global


@dataclass(frozen=True)
class AlphaStepDecay:
    alpha0: float
    factor: float = 0.25
    milestones: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if not self.factor > 0:
            raise ValueError("factor must be positive")

    def at(self, k: int) -> float:
        drops = sum(1 for m in self.milestones if k >= m)
        return self.alpha0 * self.factor**drops


@dataclass(frozen=True)
class ThetaConstant:
    theta: float = 0.5

    def __post_init__(self) -> None:
        if not self.theta >= 0:
            raise ValueError("theta must be nonnegative")

    def at(self, k: int) -> float:
        return self.theta


@dataclass(frozen=True)
class _ThetaLocal:
    """Constant ``theta_l`` before ``k_switch``, then decaying in ``k``."""

    theta_l: float
    k_switch: int = 0

    def __post_init__(self) -> None:
        if not self.theta_l >= 0:
            raise ValueError("theta_l must be nonnegative")
        if self.k_switch < 0:
            raise ValueError("k_switch must be nonnegative")


class ThetaLocalDet(_ThetaLocal):
    """Constant before ``k_switch``, then ``theta_l / (k + 1)``."""

    def at(self, k: int) -> float:
        return self.theta_l if k < self.k_switch else self.theta_l / (k + 1)


class ThetaLocalStoch(_ThetaLocal):
    """Constant before ``k_switch``, then ``theta_l / sqrt(k + 1)``."""

    def at(self, k: int) -> float:
        return self.theta_l if k < self.k_switch else self.theta_l / math.sqrt(k + 1)


@dataclass(frozen=True)
class IotaGeometric:
    iota0: float = 0.0
    a: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.a < 1:
            raise ValueError("decay factor a must lie in [0, 1)")
        if self.iota0 < 0:
            raise ValueError("iota0 must be nonnegative")

    def at(self, k: int) -> float:
        if self.a == 0.0:
            return self.iota0 if k == 0 else 0.0
        return self.iota0 * self.a**k


@dataclass(frozen=True)
class _IotaSuper:
    """Recurrence ``iota_{k+1} = iota_k * a_l / (k + 1)^power`` past the switch.

    Evaluated in log space: for ``k > k_switch`` the closed form is
    ``iota0 * a_l^m / (prod_{j=ks+1..k} j)^power`` with ``m = k - ks``,
    which underflows gracefully to zero.
    """

    iota0: float
    a_l: float
    k_switch: int = 0
    power: ClassVar[int]

    def __post_init__(self) -> None:
        if not 0 <= self.a_l < 1:
            raise ValueError("decay factor a_l must lie in [0, 1)")
        if self.iota0 < 0:
            raise ValueError("iota0 must be nonnegative")
        if self.k_switch < 0:
            raise ValueError("k_switch must be nonnegative")

    def at(self, k: int) -> float:
        if k <= self.k_switch or self.iota0 == 0.0:
            return self.iota0
        if self.a_l == 0.0:
            return 0.0
        m = k - self.k_switch
        log_val = (
            math.log(self.iota0)
            + m * math.log(self.a_l)
            - self.power * (math.lgamma(k + 1) - math.lgamma(self.k_switch + 1))
        )
        if log_val < -745.0:  # below smallest positive float64
            return 0.0
        return math.exp(log_val)


class IotaSuperDet(_IotaSuper):
    power = 4


class IotaSuperStoch(_IotaSuper):
    power = 2


@dataclass(frozen=True)
class ScheduleSet:
    alpha: Union[AlphaConstant, AlphaTwoPhase, AlphaStepDecay]
    theta: Union[ThetaConstant, ThetaLocalDet, ThetaLocalStoch]
    iota: Union[IotaGeometric, IotaSuperDet, IotaSuperStoch]


def schedule_eval(schedules: ScheduleSet, k: int) -> tuple[float, float, float]:
    """(alpha_k, theta_k, iota_k) for iteration ``k``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return schedules.alpha.at(k), schedules.theta.at(k), schedules.iota.at(k)


DEFAULT_SCHEDULES = ScheduleSet(AlphaConstant(), ThetaConstant(), IotaGeometric())


def eec(epochs: float, rank: int, hessian_freq: int = 1) -> float:
    """Epoch-equivalent compute: gradients plus Hessian probes at 2x cost.

    First-order methods (rank 0) cost exactly their epochs. Otherwise the
    charge is ``(1 + 2 rank / hf) * epochs + 2 rank``, the extra constant
    covering the every-iteration updates of the first epoch.
    """
    if not 0 <= epochs < math.inf:
        raise ValueError(f"epochs must be nonnegative and finite, got {epochs}")
    if rank < 0:
        raise ValueError("rank must be >= 0")
    if rank == 0:
        return float(epochs)
    if hessian_freq < 1:
        raise ValueError("hessian_freq must be >= 1")
    return (1.0 + 2.0 * rank / hessian_freq) * epochs + 2.0 * rank


# ---------------------------------------------------------------------------
# State and context
# ---------------------------------------------------------------------------


@dataclass
class OptState:
    """Every value a run changes, but its random streams (``RunContext.rngs``).

    ``w`` is the iterate ``w_k`` and ``k`` the steps taken. ``batch`` is the
    gradient batch size the controller has reached (0 before the first
    step), ``hess_updates`` the Hessian samples drawn, and ``f0`` the full
    loss at ``w_0``, which the blow-up guard scales by. ``diverged`` is None
    while the run is sound, else why it stopped: ``"non-finite batch
    loss"``, ``"batch loss above threshold"`` or ``"non-finite iterate"``.
    """

    w: NDArray
    f0: float
    k: int = 0
    batch: int = 0
    hess_updates: int = 0
    diverged: Optional[str] = None
    m: Optional[_Accumulator] = None  # adam and adahessian: the first moment
    avg: Optional[Union[FullAverageState, DiagAverageState]] = None
    grad_samples: int = 0
    hess_sample_units: int = 0
    hvp_probes: int = 0
    last_s_size: int = 0


def init_state(method: MethodSpec, oracle: FiniteSumOracle, w0: NDArray) -> OptState:
    d = oracle.dim
    if method.uses_full_hessian and d > FULL_HESSIAN_DIM_LIMIT:
        raise ValueError(
            f"{method.name} assembles dense {d}x{d} Hessians; refusing d > {FULL_HESSIAN_DIM_LIMIT}"
        )
    w = np.array(w0, dtype=float)
    state = OptState(w=w, f0=oracle.loss_full(w))
    if method.uses_full_hessian:
        # subnewton's decay 0 puts all the weight on the newest Hessian.
        decay = 0.0 if method.name == "subnewton" else method.decay
        state.avg = FullAverageState(d, method.mu_tilde, decay=decay, variant=method.variant)
    elif method.name in ("dan", "dan2"):
        state.avg = DiagAverageState(d, method.eps, p=1 if method.name == "dan" else 2, decay=method.decay)
    elif method.name in ("adam", "adahessian"):
        # Squared gradients (adam) or squared Hessian diagonals (adahessian).
        state.avg = DiagAverageState(d, method.adam_eps, p=2, decay=method.beta2)
        state.m = _Accumulator(method.beta1)
    return state


def _check_a_mode(controller: GradSampleController, method: MethodSpec) -> None:
    """Refuse a norm-test weighting the method could not apply.

    ``inverse_hessian`` weights the exact test by the modified averaged
    Hessian, so it needs a full-matrix method (the controller itself
    refuses it outside the exact test). Checked when a context is built,
    not when a test runs: a run whose batch starts at its cap runs no test
    at all. The config reader applies the same rule.
    """
    if controller.a_mode == "inverse_hessian" and not method.uses_full_hessian:
        raise ValueError(
            "a_mode 'inverse_hessian' weights the exact norm test by a full Hessian; "
            f"it needs method fan or subnewton, not {method.name!r}"
        )


@dataclass(frozen=True)
class RunContext:
    """What a run reads and never changes: the oracle, the method, the
    schedules and the rules that size its samples.

    The one exception is ``rngs``, whose generators advance as the run draws
    from them; a run's other changing values live in its :class:`OptState`.
    A context with fresh streams (``dataclasses.replace(ctx, rngs=...)``)
    runs again as it first ran. It refuses a controller whose ``a_mode``
    is ``"inverse_hessian"`` unless the method keeps a full Hessian.
    """

    oracle: FiniteSumOracle
    method: MethodSpec
    controller: GradSampleController
    # None, with ``policy``, for a method that keeps no Hessian estimate
    hess_sampler: Optional[Union[CyclicSampler, IidSampler]]
    rngs: dict  # named streams from :func:`hessavg.rng.streams`; a missing one is a KeyError
    schedules: ScheduleSet = DEFAULT_SCHEDULES
    policy: Optional[UpdateFrequencyPolicy] = UpdateFrequencyPolicy()
    iters_per_epoch: int = 100  # expectation problems only
    trace_interval: int = 10

    def __post_init__(self) -> None:
        _check_a_mode(self.controller, self.method)

    def epoch_of(self, state: OptState) -> float:
        n = self.oracle.n_components
        if n is None:
            return state.k / self.iters_per_epoch
        return state.grad_samples / n

    def eec_of(self, state: OptState) -> float:
        n = self.oracle.n_components
        if n is None:
            n = self.iters_per_epoch * self.controller.sizes[0]
        return (state.grad_samples + 2.0 * state.hess_sample_units) / n


def _update_hessian(ctx: RunContext, state: OptState) -> None:
    method = ctx.method
    oracle = ctx.oracle
    s_sample = ctx.hess_sampler.next_block(state.hess_updates, oracle, ctx.rngs["hessian"])
    state.hess_updates += 1
    s_size = s_sample.size
    state.last_s_size = s_size
    if method.uses_full_hessian:
        estimate = oracle.hessian_sub(state.w, s_sample)
        probes = oracle.dim
    else:
        estimate = hutchinson_diag(
            lambda v: oracle.hvp_sub(state.w, s_sample, v), oracle.dim, method.rank, ctx.rngs["probes"]
        )
        probes = method.rank
    state.hvp_probes += probes
    state.hess_sample_units += probes * s_size
    state.avg.update(estimate)


def _direction(ctx: RunContext, state: OptState, g: NDArray) -> NDArray:
    method = ctx.method
    if method.name == "sgd":
        return g
    if method.name in ("adam", "adahessian"):
        if method.name == "adam":
            state.avg.update(g)
        state.m.update(g)
        return state.avg.precondition(state.m.value())
    return state.avg.precondition(g)


def _run_controller(
    ctx: RunContext,
    state: OptState,
    g: NDArray,
    comps: Optional[NDArray],
    full_grad: Optional[NDArray],
    theta: float,
    iota: float,
) -> None:
    """Run this iteration's norm test ``lhs <= theta^2 ||.||_A^2 + iota`` and
    set the state's batch to the size the controller makes of its outcome.

    This is the one place the test's rule is written. Both tests read the
    batch gradient ``g``. The approximate test reads the batch's
    per-component gradients ``comps`` for its variance only; the exact test
    reads ``full_grad``, the full gradient at ``w_k``.
    """
    if ctx.controller.mode == "approx_norm_test":
        lhs, rhs_norm = approx_norm_terms(comps, g)
    else:
        weight = state.avg.modified()[0] if ctx.controller.a_mode == "inverse_hessian" else None
        lhs, rhs_norm = exact_norm_terms(g, full_grad, weight)
    rhs = theta**2 * rhs_norm + iota
    state.batch = ctx.controller.record_test(lhs <= rhs, lhs, rhs, state.batch)


def step(ctx: RunContext, state: OptState) -> tuple[OptState, TraceRecord]:
    """One iteration; returns the mutated state and its telemetry record.

    A record describes the iterate the step started from: ``f``,
    ``grad_norm``, and ``dist_to_opt`` are evaluated at ``w_k``, while the
    counters (probes, samples, epoch-equivalent compute) include the work
    this iteration performed.
    """
    oracle = ctx.oracle
    x_size = state.batch = ctx.controller.size(ctx.epoch_of(state), state.batch)
    sample = oracle.draw_sample(ctx.rngs["gradient"], x_size)

    # A norm test runs only while it can still grow the batch; a step at
    # the cap computes what a fixed-size step does. The batch loss and
    # gradient come from one call, which tracing never changes. The full
    # gradient at w_k, shared by the trace snapshot and the exact test, is
    # read from it at the whole sum and costs one full pass below it. The
    # approximate test reads the per-component gradients for its variance
    # only.
    traced = state.k % ctx.trace_interval == 0
    testing = ctx.controller.can_grow(x_size)
    approx = testing and ctx.controller.mode == "approx_norm_test"
    f_batch, g = oracle.loss_grad_sub(state.w, sample)
    full_grad = _full_grad(oracle, state.w, g, x_size) if traced or (testing and not approx) else None
    comps = oracle.component_grads(state.w, sample) if approx else None

    alpha, theta, iota = schedule_eval(ctx.schedules, state.k)

    grad_norm, dist = _snapshot(ctx, state, full_grad if traced else None)

    # Blow-up guard: a batch loss that is not finite, or is a million times
    # above the starting value (with a unit floor so near-zero or negative
    # baselines stay usable), halts the run.
    if not math.isfinite(f_batch):
        state.diverged = "non-finite batch loss"
    elif f_batch > state.f0 + DIVERGENCE_FACTOR * max(abs(state.f0), 1.0):
        state.diverged = "batch loss above threshold"
    else:
        if ctx.method.keeps_hessian and ctx.policy.should_update(state.k):
            _update_hessian(ctx, state)
        p = _direction(ctx, state, g)
        if testing:
            _run_controller(ctx, state, g, comps, full_grad, theta, iota)
        w_new = state.w - alpha * p
        if not np.all(np.isfinite(w_new)):
            state.diverged = "non-finite iterate"
        else:
            state.w = w_new

    state.grad_samples += x_size
    record = _record(ctx, state, f_batch, grad_norm, x_size, dist)
    state.k += 1
    return state, record


def _full_grad(oracle: FiniteSumOracle, w: NDArray, g: NDArray, x_size: int) -> NDArray:
    """The full gradient at ``w``, given the batch gradient ``g`` of a draw of
    ``x_size``: ``g`` itself when the draw is every component, which the
    oracle's draw contract makes the full sum bit for bit, else
    ``grad_full(w)``."""
    return g if x_size == oracle.n_components else oracle.grad_full(w)


def _record(
    ctx: RunContext,
    state: OptState,
    f: float,
    grad_norm: Optional[float],
    x_size: int,
    dist: Optional[float],
) -> TraceRecord:
    """The trace record of ``state``'s iterate and counters so far."""
    return TraceRecord(
        k=state.k,
        epoch=ctx.epoch_of(state),
        f=f,
        grad_norm=grad_norm,
        x_size=x_size,
        s_size=state.last_s_size,
        hvp_probes=state.hvp_probes,
        eec=ctx.eec_of(state),
        dist_to_opt=dist,
    )


def _snapshot(
    ctx: RunContext, state: OptState, full_grad: Optional[NDArray]
) -> tuple[Optional[float], Optional[float]]:
    """Trace values at ``w_k``: the full-gradient norm and the distance to the optimum.

    Either is ``None`` when ``full_grad`` is not given or the oracle knows
    no optimum.
    """
    grad_norm = None if full_grad is None else float(np.linalg.norm(full_grad))
    dist = None
    opt = ctx.oracle.optimum()
    if opt is not None:
        dist = float(np.linalg.norm(state.w - opt[0]))
    return grad_norm, dist


def run(ctx: RunContext, w0: NDArray, epochs: float) -> tuple[OptState, list[TraceRecord]]:
    """Run until the epoch budget is spent (or divergence halts the loop).

    One record is emitted per iteration plus a terminal record for the
    final iterate, drawn at the batch size the run reached, so a zero-epoch
    run yields exactly the initial record. The run changes ``ctx`` only by
    advancing its streams: all else it changes is in the returned state.
    """
    state = init_state(ctx.method, ctx.oracle, w0)
    records: list[TraceRecord] = []
    while ctx.epoch_of(state) < epochs and state.diverged is None:
        state, record = step(ctx, state)
        records.append(record)
    batch = state.batch or ctx.controller.size(0.0, 0)  # a run of no step: its first batch
    final_sample = ctx.oracle.draw_sample(ctx.rngs["gradient"], batch)
    f_final, g = ctx.oracle.loss_grad_sub(state.w, final_sample)
    grad_norm, dist = _snapshot(ctx, state, _full_grad(ctx.oracle, state.w, g, batch))
    records.append(_record(ctx, state, f_final, grad_norm, batch, dist))
    return state, records
