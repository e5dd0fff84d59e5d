"""Experiment configuration, execution, persistence, and rate fitting.

A config is a JSON document of sections, and each section has one reader.
Loading a config (:meth:`ExperimentConfig.from_dict`) and building its run
(:func:`build_context`) call the same readers, through :func:`_read_sections`.
A reader takes once each key the run reads, with its default written once,
and reads it as its type says; a key left over is a ConfigError, and so is a
value the built object rejects. :func:`_read` reads a class's fields: the top
level, the update policy, each schedule, and ``method``, which takes ``name``
and then only that method's keys (``optimizers.METHODS``): sgd none; adam the
betas and ``adam_eps``; subnewton ``mu_tilde`` and ``variant``; fan those and
``decay``; dan and dan2 ``rank``, ``eps`` and ``decay``; adahessian ``rank``,
the betas and ``adam_eps``. Only the norm tests read ``cap``, only the exact
one ``a_mode``, and sgd and adam, which keep no Hessian estimate, read no
``hess`` or ``policy``. The problem is read first, with its component count
(None for an expectation), and loading builds the gradient batch controller
and the Hessian sampler from it: a cyclic sampler needs a finite sum whose
size its block divides. Only ``near_optimum``, which needs a known optimum,
waits for the built problem.

A config is held and hashed as read. The readers record what they take, and
:meth:`ExperimentConfig.from_dict` returns that reading: each section holds
exactly the keys its reader took, each with the value read, defaults written
in and numbers of their field's type. A quadratic's ``seed`` reads as null
when it follows the run's seed, a ``rolling_f`` of 1, which smooths nothing,
as 0, and a key that acts on nothing in its run as null: a synthetic sum's
``freq`` and ``n_ripples`` at ``curvature`` 0, and ``epochs_per_block`` on a
table of one size. So configs that run the same arithmetic share one hash, one
``summary.json`` echo and one sweep row, and a reading loads as itself. Each
size the run clamps reads as clamped: a ``cap`` at or above a finite sum's
size as null, and so does an expectation's default cap,
``DEFAULT_EXPECTATION_CAP``; each gradient batch size as at most the cap, and
a Hessian sample size as at most the component count.

The output and data directories are arguments of a run, not config keys.
Given one, a run writes ``trace.csv`` (versioned schema, byte-reproducible
given config and seed) and ``summary.json`` (final/best objective,
divergence flag and reason, epoch-equivalent compute, seed, config echo and
hash, the thread count, kernel core and build numpy's BLAS library reports,
see :func:`_blas_report`, and the threads a logistic pass or a
coupled synthetic sum's build may use)
atomically into it. Sweeps execute many configs, optionally across spawned
worker processes, and reduce to a table with one row per config, as read,
but its seed.

Threads: the ``hessavg`` command (``python -m hessavg``) and the workers
:func:`run_many` spawns run with one BLAS thread unless the caller sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``. A run in the caller's own
process uses the threads its numpy started with. Apart from BLAS, two passes
share their work among up to one thread per CPU the process may run on, from
one pool per process: a logistic pass, full or batch, that spans two or more
row blocks shares its blocks, and a coupled synthetic sum's build shares the
chunks of its norm screen and of its conjugation. That count is the summary's
``pass_threads``, and it never changes a bit of a run (see
:class:`~hessavg.problems.LogisticProblem` and
:meth:`~hessavg.problems.SyntheticSumProblem.generate`). Nothing else starts a
thread, and a parallel sweep's workers may together run more threads than
there are CPUs.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import numbers
import os
import tempfile
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np
from numpy.typing import NDArray

from . import BLAS_THREAD_VARS
from . import rng as rng_mod
from .data import MANIFESTS, load_dataset
from .averaging import UpdateFrequencyPolicy
from .linalg import numpy_blas
from .optimizers import (
    AlphaConstant,
    AlphaStepDecay,
    AlphaTwoPhase,
    IotaGeometric,
    IotaSuperDet,
    IotaSuperStoch,
    METHODS,
    MethodSpec,
    RunContext,
    ScheduleSet,
    ThetaConstant,
    ThetaLocalDet,
    ThetaLocalStoch,
    _check_a_mode,
    run,
)
from .problems import (
    FiniteSumOracle,
    LogisticProblem,
    SyntheticSumProblem,
    make_synthetic_logistic,
    pass_threads,
    quadratic_generate,
)
from .sampling import ADAPTIVE_MODES, CyclicSampler, GradSampleController, IidSampler, check_batch_sizes
from .trace import TraceRecord, format_trace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "RateReport",
    "run_experiment",
    "run_many",
    "estimate_rates",
    "sweep",
]

RATE_FLOOR = 1e-13
# The gradient batch cap of an expectation whose config sets no ``cap``.
DEFAULT_EXPECTATION_CAP = 2**16


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_REQUIRED = object()


def _as_number(value, name: str, kind: type = float):
    """``value`` as ``kind`` (``float`` or ``int``), or a ConfigError naming ``name``.

    JSON ``null``, ``true``/``false``, strings and containers are not
    numbers; ``int()``/``float()`` would raise a bare TypeError on some of
    them and silently accept the others, as ``json`` accepts ``NaN``. An
    ``int`` field takes ``16.0`` but not ``2.9``, which ``int()`` truncates.
    A ``float`` field refuses an integer too large for a float, on which
    ``float()`` raises a bare OverflowError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        # no repr: one of more than 4300 digits raises a ValueError itself
        raise ConfigError(f"{name} must be a finite number, got an integer too large for a float") from None


class _Section(dict):
    """A config section's keys not yet read, and in ``read`` the keys its
    reader took, each as read: defaults written in, numbers of their field's
    type, and a nested section as its own reading."""

    def __init__(self, raw: dict):
        super().__init__(raw)
        self.read = {}


def _take(section: _Section, key: str, where: str, hint, default=_REQUIRED):
    """Remove ``section[key]``, read it as the annotation ``hint`` (``default``
    when absent) and record the value read in ``section.read``.

    Without a default the key is required. ``float`` and ``int`` go through
    :func:`_as_number`, ``str`` must be a JSON string, ``dict`` a JSON object
    (read as a :class:`_Section`, whose reading is recorded),
    ``tuple[int, ...]`` is a list of integers, and ``Optional[...]`` also
    takes ``null``. A default is read as a written value is, so a config that
    writes out a default reads as one that leaves it out.
    """
    if key not in section and default is _REQUIRED:
        raise ConfigError(f"missing key {key!r} in {where}")
    value = _as_hint(section.pop(key, default), f"{key!r} in {where}", hint)
    section.read[key] = value.read if isinstance(value, _Section) else value
    return value


def _as_hint(value, name: str, hint):
    if get_origin(hint) is Union:
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if hint in (float, int):
        return _as_number(value, name, hint)
    if hint in (str, dict):
        if not isinstance(value, hint):
            raise ConfigError(f"{name} must be {'a string' if hint is str else 'an object'}, got {value!r}")
        return _Section(value) if hint is dict else value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_as_number(v, f"entries of {name}", int) for v in value)


def _done(section: dict, where: str) -> None:
    """Reject the keys left in ``section`` once its reader has taken its own."""
    if section:
        raise ConfigError(f"unknown keys {sorted(section)} in {where}")


_type_hints = cache(get_type_hints)  # a class's annotations, evaluated once


def _read(cls, section: dict, where: str, keys: Optional[Sequence[str]] = None):
    """``cls`` built from a config section whose keys are its fields, or those in ``keys``.

    A field with a default is optional, and each value is read as its
    annotation says. A key not read, or a value the class rejects, is a
    ConfigError naming ``where``; a field not read keeps its default.
    """
    hints = _type_hints(cls)
    values = {}
    for f in fields(cls):
        if keys is None or f.name in keys:
            default = f.default_factory() if f.default_factory is not MISSING else f.default
            values[f.name] = _take(section, f.name, where, hints[f.name], _REQUIRED if default is MISSING else default)
    _done(section, where)
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err


# Initial-point kinds, each with its keys' defaults; the first is the default kind.
INIT_KINDS = {"gaussian": {"scale": 1.0}, "zeros": {}, "near_optimum": {"radius": 0.5}}

# The bound on each problem key its builder bounds, and the bound in words.
# Each test is false for NaN.
PROBLEM_BOUNDS = {
    "n": (lambda v: v >= 1, ">= 1"),
    "n_components": (lambda v: v >= 1, ">= 1"),
    "d": (lambda v: v >= 1, ">= 1"),
    "keep_prob": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "curvature": (lambda v: v >= 0, ">= 0"),
    "coupling": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "freq": (lambda v: v is None or abs(v) > 0, "nonzero"),  # None: the default
    "n_ripples": (lambda v: v is None or v >= 1, ">= 1"),
    "seed": (lambda v: v is None or v >= 0, ">= 0"),  # None: the quadratic's follows the run's
    "split_seed": (lambda v: v >= 0, ">= 0"),
}


@dataclass
class ExperimentConfig:
    problem: dict
    method: dict
    sampling: dict = field(default_factory=dict)
    schedules: dict = field(default_factory=dict)
    epochs: float = 1.0
    seed: int = 0
    trace_interval: int = 10
    rolling_f: int = 0
    iters_per_epoch: int = 100
    init: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.epochs >= 0:
            raise ValueError("epochs must be nonnegative")
        if not self.seed >= 0:
            raise ValueError("seed must be nonnegative")
        if not self.trace_interval >= 1:
            raise ValueError("trace_interval must be >= 1")
        if not self.rolling_f >= 0:
            raise ValueError("rolling_f must be nonnegative")
        if not self.iters_per_epoch >= 1:
            raise ValueError("iters_per_epoch must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config as its run reads it, or a ConfigError.

        Each section holds exactly the keys its reader takes, each with the
        value read: defaults written in, and numbers of their field's type.
        Two configs that differ only in how they spell what a run reads
        load equal, and a reading loads as itself.
        """
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return _read_sections(raw).config

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def hash(self) -> str:
        """Short SHA-256 of every field, seed included, as read when loaded by
        :meth:`from_dict`; output and data paths are run arguments, not in it."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Section readers
# ---------------------------------------------------------------------------

# A config's sections, read. ``problem`` builds the oracle, of ``n``
# components (None for an expectation), and ``init`` the initial point from
# the oracle and a stream; the rest are built, the controller and Hessian
# sampler with the sizes as the reading clamped them. ``config`` is the
# reading: the config as these sections read it.
_Sections = namedtuple("_Sections", "problem n method schedules policy controller hess_sampler init config")


def _read_sections(raw: dict, data_dir: Optional[str] = None) -> _Sections:
    top = _Section(raw)
    cfg = _read(ExperimentConfig, top, "config")  # each section a _Section, read below
    if cfg.rolling_f == 1:  # a window of one smooths nothing, as 0 does
        top.read["rolling_f"] = 0
    method = _read_method(cfg.method)
    problem, n = _read_problem(cfg.problem, cfg, data_dir)
    controller = _read_grad(cfg.sampling, method, n)
    policy, hess_sampler = _read_hess(cfg.sampling, n) if method.keeps_hessian else (None, None)
    sections = _Sections(
        problem=problem,
        n=n,
        method=method,
        schedules=_build_schedules(cfg.schedules),
        policy=policy,
        controller=controller,
        hess_sampler=hess_sampler,
        init=_read_init(cfg.init),
        config=ExperimentConfig(**top.read),
    )
    _done(cfg.sampling, f"sampling for method {method.name!r}")
    return sections


def _read_method(spec: dict) -> MethodSpec:
    """The method: ``name``, then only the keys :data:`METHODS` lists for it.
    An unknown name reads every key, and ``MethodSpec`` refuses the name."""
    name = _take(_Section(spec), "name", "method", str)
    keys = ("name", *METHODS[name]) if name in METHODS else None
    return _read(MethodSpec, spec, f"method {name!r}", keys)


def _read_problem(spec: dict, cfg: ExperimentConfig, data_dir: Optional[str]) -> tuple[Callable[[], FiniteSumOracle], Optional[int]]:
    """A builder of the problem, and its component count: None for the
    quadratic, an expectation, and the rows a dataset loads to. The
    quadratic's seed reads as None when absent, and the problem then follows
    the run's ``seed``. A synthetic sum's ``freq`` and ``n_ripples`` act only
    through its ``curvature``, and a null one is its default: on a sum of
    curvature 0 they read as null and build with their defaults, once their
    written values pass their bounds. A dataset, which must be one of
    ``data.MANIFESTS``, is read from ``data_dir``. Only the quadratic reads
    the config's ``iters_per_epoch``: a finite sum counts its epochs in
    components, so it refuses any other value than the default. Each value
    the builder would refuse is refused here, so a problem that loads
    builds."""
    # Each kind's builder, its keys with their types and defaults, and its
    # component count from the values read.
    kinds = {
        "quadratic": (
            quadratic_generate,
            {"d": (int, 100), "keep_prob": (float, 0.5), "seed": (Optional[int], None)},
            lambda args: None,
        ),
        "logistic": (
            lambda dataset, split_seed: LogisticProblem(*load_dataset(dataset, data_dir, split_seed)),
            {"dataset": (str, _REQUIRED), "split_seed": (int, 0)},
            lambda args: MANIFESTS[args["dataset"]].rows,
        ),
        "synthetic_logistic": (
            lambda **args: LogisticProblem(*make_synthetic_logistic(**args)),
            {"n": (int, 400), "d": (int, 12), "seed": (int, 0)},
            lambda args: args["n"],
        ),
        "synthetic_sum": (
            SyntheticSumProblem.generate,
            {"n_components": (int, 16), "d": (int, 20), "seed": (int, 0), "curvature": (float, 0.0),
             "coupling": (float, 0.0), "freq": (Optional[float], 10.0), "n_ripples": (Optional[int], 4)},
            lambda args: args["n_components"],
        ),
    }
    kind = _take(spec, "kind", "problem", str)
    if kind not in kinds:
        raise ConfigError(f"unknown problem kind {kind!r}")
    where = f"problem of kind {kind!r}"
    if kind != "quadratic" and cfg.iters_per_epoch != ExperimentConfig.iters_per_epoch:
        raise ConfigError(
            f"'iters_per_epoch' in config acts only on the quadratic problem, not on a {where}; "
            f"got {cfg.iters_per_epoch}"
        )
    make, keys, count = kinds[kind]
    args = {key: _take(spec, key, where, hint, default) for key, (hint, default) in keys.items()}
    _done(spec, where)
    for key, value in args.items():
        if key in PROBLEM_BOUNDS and not PROBLEM_BOUNDS[key][0](value):
            raise ConfigError(f"{key!r} in {where} must be {PROBLEM_BOUNDS[key][1]}, got {value}")
    if kind == "synthetic_sum" and args["coupling"] > 0 and args["n_components"] < 2:
        raise ConfigError(f"coupling={args['coupling']} in {where} needs n_components >= 2, got n_components={args['n_components']}")
    if kind == "synthetic_sum":
        for key in ("freq", "n_ripples"):
            if args[key] is None or args["curvature"] == 0:
                args[key] = keys[key][1]
            spec.read[key] = args[key] if args["curvature"] > 0 else None
    if kind == "quadratic" and args["seed"] is None:
        args["seed"] = cfg.seed
    if kind == "logistic" and args["dataset"] not in MANIFESTS:
        raise ConfigError(f"unknown 'dataset' {args['dataset']!r} in {where}; known: {sorted(MANIFESTS)}")
    return partial(make, **args), count(args)


# Schedule kinds by config section; the first is the section's default kind.
SCHEDULE_KINDS = {
    "alpha": {"constant": AlphaConstant, "two_phase": AlphaTwoPhase, "step_decay": AlphaStepDecay},
    "theta": {"constant": ThetaConstant, "local_det": ThetaLocalDet, "local_stoch": ThetaLocalStoch},
    "iota": {"geometric": IotaGeometric, "super_det": IotaSuperDet, "super_stoch": IotaSuperStoch},
}


def _build_schedules(spec: dict) -> ScheduleSet:
    """The schedules: each section's keys are ``kind`` and that kind's class's fields."""
    spec = spec if isinstance(spec, _Section) else _Section(spec)
    schedules = {}
    for section, kinds in SCHEDULE_KINDS.items():
        raw = _take(spec, section, "schedules", dict, {})
        kind = _take(raw, "kind", f"{section} schedule", str, next(iter(kinds)))
        if kind not in kinds:
            raise ConfigError(f"unknown {section} schedule kind {kind!r}")
        schedules[section] = _read(kinds[kind], raw, f"{section} schedule of kind {kind!r}")
    _done(spec, "schedules")
    return ScheduleSet(**schedules)


def _read_grad(sampling: dict, method: MethodSpec, n: Optional[int]) -> GradSampleController:
    """The gradient batch controller, with its norm-test weighting ``a_mode``,
    for a problem of ``n`` components (None for an expectation). Each mode
    has one batch-size key: ``size`` when fixed, ``sizes`` for the epoch
    table, ``initial_size`` for the norm tests, which alone read ``cap``;
    the exact test alone reads ``a_mode``, which the method must be able to
    apply. It and ``epochs_per_block`` default as the controller does, and a
    null ``epochs_per_block`` is its default; on a table of one size, which
    it does not change, it reads as null. On a finite sum the cap is its
    size unless ``cap`` is below it, and a ``cap`` that is not reads as
    null. On an expectation the cap is ``cap`` as written, or
    ``DEFAULT_EXPECTATION_CAP`` when it is absent, and that default reads as
    null. Each batch size reads as at most the cap. An unknown mode is
    refused before the section's keys are checked, and a batch size below 1
    under its key."""
    where = "grad sampling"
    grad = _take(sampling, "grad", "sampling", dict, {})
    mode = _take(grad, "mode", where, str, "fixed")
    rule = {}
    if mode == "exact_norm_test":
        rule["a_mode"] = _take(grad, "a_mode", where, str, GradSampleController.a_mode)
    limit = DEFAULT_EXPECTATION_CAP if n is None else n
    cap = _take(grad, "cap", where, Optional[int], None) if mode in ADAPTIVE_MODES else None
    if cap is None or (n is not None and cap > n):
        cap = limit
    if mode in ADAPTIVE_MODES and cap == limit:
        grad.read["cap"] = None
    if mode == "geometric_epochs":
        key, sizes = "sizes", _take(grad, "sizes", where, tuple[int, ...])
        per_block = _take(grad, "epochs_per_block", where, Optional[int], None)
        rule["epochs_per_block"] = GradSampleController.epochs_per_block if per_block is None else per_block
        # a table of one size never moves to another: it reads as null
        grad.read["epochs_per_block"] = rule["epochs_per_block"] if len(sizes) > 1 else None
    else:
        key = "size" if mode == "fixed" else "initial_size"
        sizes = (_take(grad, key, where, int, 32),)
    try:
        check_batch_sizes(key, sizes)
        sizes = tuple(min(size, cap) for size in sizes)
        grad.read[key] = sizes if key == "sizes" else sizes[0]
        controller = GradSampleController(mode, sizes, cap, **rule)
        _check_a_mode(controller, method)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err
    _done(grad, f"{where} of mode {mode!r}")
    return controller


def _read_hess(sampling: dict, n: Optional[int]) -> tuple[UpdateFrequencyPolicy, Union[CyclicSampler, IidSampler]]:
    """The update policy and the Hessian sampler for a problem of ``n``
    components (None for an expectation); its size reads as at most ``n``."""
    policy = _read(UpdateFrequencyPolicy, _take(sampling, "policy", "sampling", dict, {}), "update policy")
    where = "hess sampling"
    hess = _take(sampling, "hess", "sampling", dict, {})
    kind = _take(hess, "kind", where, str, "iid")
    if kind not in ("iid", "cyclic"):
        raise ConfigError(f"unknown Hessian sampler kind {kind!r}")
    size = _take(hess, "size", where, int, 32)
    seed = _take(hess, "seed", where, Optional[int], None) if kind == "cyclic" else None
    _done(hess, f"{where} of kind {kind!r}")
    if kind == "cyclic" and n is None:
        raise ConfigError("cyclic Hessian sampling requires a finite-sum problem")
    hess.read["size"] = size = size if n is None else min(size, n)
    try:
        return policy, CyclicSampler(n, size, seed) if kind == "cyclic" else IidSampler(size)
    except ValueError as err:
        raise ConfigError(f"bad {where} of kind {kind!r} with Hessian sample size {size}: {err}") from err


def _read_init(spec: dict) -> Callable[[FiniteSumOracle, np.random.Generator], NDArray]:
    """A builder of the initial point from the oracle and the init stream."""
    kind = _take(spec, "kind", "init", str, next(iter(INIT_KINDS)))
    if kind not in INIT_KINDS:
        raise ConfigError(f"unknown init kind {kind!r}")
    where = f"init of kind {kind!r}"
    values = {key: _take(spec, key, where, float, default) for key, default in INIT_KINDS[kind].items()}
    _done(spec, where)

    def point(oracle: FiniteSumOracle, rng: np.random.Generator) -> NDArray:
        if kind == "gaussian":
            return values["scale"] * rng.standard_normal(oracle.dim)
        if kind == "zeros":
            return np.zeros(oracle.dim)
        opt = oracle.optimum()
        if opt is None:
            raise ConfigError("init kind 'near_optimum' needs a problem with a known optimum")
        direction = rng.standard_normal(oracle.dim)
        direction /= np.linalg.norm(direction)
        return opt[0] + values["radius"] * direction

    return point


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_context(cfg: ExperimentConfig, data_dir: Optional[str] = None) -> tuple[RunContext, NDArray]:
    read = _read_sections(cfg.to_dict(), data_dir)
    oracle = read.problem()
    if oracle.n_components != read.n:
        raise ConfigError(f"the problem built has {oracle.n_components} components, but its config reads {read.n}")
    streams = rng_mod.streams(cfg.seed)
    ctx = RunContext(
        oracle=oracle,
        method=read.method,
        controller=read.controller,
        hess_sampler=read.hess_sampler,
        schedules=read.schedules,
        policy=read.policy,
        rngs=streams,
        iters_per_epoch=cfg.iters_per_epoch,
        trace_interval=cfg.trace_interval,
    )
    return ctx, read.init(oracle, streams["init"])


# ---------------------------------------------------------------------------
# Running and persistence
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    records: list[TraceRecord]
    summary: dict


# The getters of numpy's OpenBLAS (``libscipy_openblas64_``), which runs
# numpy's products and ``eigh`` and the LAPACK calls of ``linalg``, by the
# summary field each fills: its thread count, the core whose kernels it
# picked for this CPU (``OPENBLAS_CORETYPE`` overrides it), and its build.
BLAS_GETTERS = {
    "blas_threads": ("scipy_openblas_get_num_threads64_", ctypes.c_int),
    "blas_core": ("scipy_openblas_get_corename64_", ctypes.c_char_p),
    "blas_config": ("scipy_openblas_get_config64_", ctypes.c_char_p),
}


def _blas_report() -> dict:
    """What numpy's OpenBLAS reports of itself, each field None when it lacks
    the getter. It is read through the handle ``linalg`` binds LAPACK with."""
    report = dict.fromkeys(BLAS_GETTERS)
    for key, (name, restype) in BLAS_GETTERS.items():
        getter = getattr(numpy_blas(), name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], restype
            value = getter()
            report[key] = value.decode() if isinstance(value, bytes) else value
    return report


def _rolling(values: list[float], window: int) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _finite_or_none(value):
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def strict_json(value, **kwargs) -> str:
    """``json.dumps`` with every non-finite float written as ``null``.

    RFC 8259 has no ``NaN`` or ``Infinity`` token, and a diverged run's
    losses and norms can be either; strict parsers reject a file that
    holds one.
    """
    return json.dumps(_finite_or_none(value), allow_nan=False, **kwargs)


def run_experiment(
    cfg: ExperimentConfig, data_dir: Optional[str] = None, out_dir: Optional[str] = None
) -> RunResult:
    """Execute one config, as :meth:`ExperimentConfig.from_dict` reads it;
    persist trace + summary if ``out_dir`` is given."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict(cfg.to_dict())
    ctx, w0 = build_context(cfg, data_dir)
    state, records = run(ctx, w0, cfg.epochs)
    if cfg.rolling_f > 1:
        smoothed = _rolling([r.f for r in records], cfg.rolling_f)
        for rec, f in zip(records, smoothed):
            rec.f = f
    f_final = float(ctx.oracle.loss_full(state.w))
    measured = [r.f for r in records if math.isfinite(r.f)]
    summary = {
        "schema": "hessavg-summary-v1",
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "method": ctx.method.name,
        "final_f": f_final,
        "best_f": min(measured + [f_final]),
        "diverged": state.diverged is not None,
        "divergence": state.diverged,
        "iterations": state.k,
        "epochs": records[-1].epoch,
        "eec": records[-1].eec,
        "hvp_probes": state.hvp_probes,
        "final_grad_norm": records[-1].grad_norm,
        "final_dist_to_opt": records[-1].dist_to_opt,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
        **_blas_report(),
        "pass_threads": pass_threads(),
        "config": cfg.to_dict(),
    }
    if out_dir:
        base = Path(out_dir)
        _atomic_write(base / "trace.csv", format_trace(records, cfg.hash(), cfg.seed))
        _atomic_write(base / "summary.json", strict_json(summary, indent=2, sort_keys=True) + "\n")
    return RunResult(records=records, summary=summary)


def _run_one(args) -> dict:
    cfg_dict, data_dir, out_dir = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = run_experiment(cfg, data_dir=data_dir, out_dir=out_dir)
    return result.summary


@contextmanager
def _one_blas_thread_for_workers():
    """Set each unset variable of ``BLAS_THREAD_VARS`` to 1 while workers are spawned.

    A spawned process inherits this environment and loads numpy afresh; a
    value the caller set is left as it is. The variables are unset again on
    exit.
    """
    added = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        yield
    finally:
        for var in added:
            os.environ.pop(var, None)


def run_many(
    configs: Sequence[ExperimentConfig],
    data_dir: Optional[str] = None,
    out_dirs: Optional[Sequence[Optional[str]]] = None,
    parallel: int = 1,
) -> list[dict]:
    """Run several configs, each isolated; results ordered like the input.

    With ``parallel > 1`` the configs run in that many spawned processes,
    each started with ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` at 1
    unless the caller's environment sets them.
    """
    if out_dirs is None:
        out_dirs = [None] * len(configs)
    if len(out_dirs) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(out_dirs)} out_dirs")
    jobs = [(cfg.to_dict(), data_dir, out) for cfg, out in zip(configs, out_dirs)]
    if parallel <= 1 or len(jobs) <= 1:
        return [_run_one(job) for job in jobs]
    # Imported here: only a parallel sweep needs the process machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread_for_workers(), ProcessPoolExecutor(max_workers=parallel, mp_context=spawn) as pool:
        return list(pool.map(_run_one, jobs))


# ---------------------------------------------------------------------------
# Convergence-rate estimation
# ---------------------------------------------------------------------------


@dataclass
class RateReport:
    """Least-squares fit of successive error ratios against iteration index.

    ``ratios[j] = e_{k+1} / e_k`` is regressed on the index of the later
    iterate: slope of ``log ratio`` vs ``log (k+1)``. ``rho_bar`` is the
    geometric mean of the ratios (the average linear rate), a ratio across
    a gap of steps counting once per step. Only errors above the numerical
    floor participate; ``n_points`` counts the ratios fitted.
    """

    k_lo: int
    k_hi: int
    n_points: int
    slope: float
    intercept: float
    rho_bar: float


def estimate_rates(
    errors: Sequence[Optional[float]], k_start: int = 1, k_end: Optional[int] = None
) -> RateReport:
    """Fit the decay rate of an error sequence ``e_k`` indexed from 0.

    A None entry is a step with no value, such as an untraced step's
    ``grad_norm``. The ratio of two values ``dk`` steps apart counts as
    ``dk`` steps at the rate ``ratio ** (1 / dk)``: it enters the fit at the
    later index with weight ``dk``, so a trace thinned to every fifth step
    fits the rate of the whole trace. ``k_start`` and ``k_end`` bound the
    indices of both values of a ratio. Ratios with either endpoint at or
    below the 1e-13 floor are dropped. Raises ``ValueError`` with fewer
    than 10 usable ratios.
    """
    if k_end is None:
        k_end = len(errors) - 1
    known = [(k, e) for k, e in enumerate(errors) if e is not None and max(k_start, 0) <= k <= k_end]
    ks, logs, steps = [], [], []
    for (k0, e0), (k1, e1) in zip(known, known[1:]):
        if e0 > RATE_FLOOR and e1 > RATE_FLOOR:
            rho = e1 / e0
            if rho > 0 and math.isfinite(rho):
                ks.append(k1)
                steps.append(k1 - k0)
                logs.append(math.log(rho) / (k1 - k0))
    if len(ks) < 10:
        raise ValueError(
            f"only {len(ks)} usable ratios above the {RATE_FLOOR} floor; need at least 10"
        )
    x = np.log(np.asarray(ks, dtype=float))
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(steps))
    rho_bar = float(np.exp(np.average(y, weights=steps)))
    return RateReport(
        k_lo=ks[0],
        k_hi=ks[-1],
        n_points=len(ks),
        slope=float(slope),
        intercept=float(intercept),
        rho_bar=rho_bar,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


# The columns of a sweep's table and CSV. ``config`` is the hash of the
# config with its seed cleared, the row's key.
SWEEP_COLUMNS = ("method", "alpha", "rank", "grad_mode", "config", "seeds", "diverged", "mean_final_f")


def sweep(
    configs: Sequence[ExperimentConfig],
    data_dir: Optional[str] = None,
    out_dirs: Optional[Sequence[Optional[str]]] = None,
    parallel: int = 1,
) -> tuple[list[dict], str]:
    """Run a config grid and reduce to one row per config but its seed.

    Configs whose readings differ in anything but ``seed`` get rows of their
    own, told apart by the ``config`` column when the shown columns agree. A row's
    ``alpha`` is its schedule's first step size. Runs write as in
    :func:`run_many`.

    Diverged runs are counted in ``diverged`` and excluded from means; a
    row whose runs all diverged shows an 'x'. Returns the raw rows plus an
    aligned-text table.
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")
    # a config made directly, not loaded, is keyed and shown as read, as its run reads it
    configs = [ExperimentConfig.from_dict(cfg.to_dict()) for cfg in configs]
    summaries = run_many(configs, data_dir=data_dir, out_dirs=out_dirs, parallel=parallel)
    rows: dict[str, dict] = {}
    for cfg, summ in zip(configs, summaries):
        key = replace(cfg, seed=0).hash()
        if key not in rows:
            rows[key] = {
                "method": cfg.method["name"],
                "alpha": _build_schedules(cfg.schedules).alpha.at(0),
                "rank": cfg.method.get("rank"),
                "grad_mode": cfg.sampling["grad"]["mode"],
                "config": key,
                "finals": [],
            }
        rows[key]["finals"].append(None if summ["diverged"] else summ["final_f"])
    for row in rows.values():
        finals = [f for f in row["finals"] if f is not None]
        row.update(
            seeds=len(row["finals"]),
            diverged=len(row["finals"]) - len(finals),
            mean_final_f=float(np.mean(finals)) if finals else None,
        )
    return list(rows.values()), _format_table(list(rows.values()))


def _format_table(rows: list[dict]) -> str:
    table = [list(SWEEP_COLUMNS)]
    for row in rows:
        mean = row["mean_final_f"]
        table.append(["" if row[h] is None else str(row[h]) for h in SWEEP_COLUMNS[:-1]] + ["x" if mean is None else f"{mean:.6g}"])
    widths = [max(len(r[i]) for r in table) for i in range(len(SWEEP_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows: list[dict]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[h] is None else str(row[h]) for h in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
