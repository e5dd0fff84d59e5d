"""Experiment configuration, execution, persistence, and rate fitting.

Configs are JSON documents validated into dataclasses. A run writes two
artifacts atomically into its output directory: ``trace.csv`` (versioned
schema, byte-reproducible given config and seed) and ``summary.json``
(final/best objective, divergence flag, epoch-equivalent compute, seed,
config echo and hash, and the ``OPENBLAS_NUM_THREADS`` the run saw).
Sweeps execute many configs, optionally across spawned worker processes
that start with one BLAS thread each, and reduce to a summary table in
config order.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import numbers
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np
from numpy.typing import NDArray

from . import rng as rng_mod
from .data import load_dataset
from .averaging import UpdateFrequencyPolicy
from .optimizers import (
    AlphaConstant,
    AlphaStepDecay,
    AlphaTwoPhase,
    IotaGeometric,
    IotaSuperDet,
    IotaSuperStoch,
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
    quadratic_generate,
)
from .sampling import ALL_MODES, DEFAULT_EXPECTATION_CAP, CyclicSampler, GradSampleController, IidSampler
from .trace import TraceRecord, format_trace

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "RateReport",
    "build_problem",
    "run_experiment",
    "run_many",
    "estimate_rates",
    "sweep",
]

RATE_FLOOR = 1e-13


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing key {key!r} in {where}")
    return mapping[key]


_REQUIRED = object()


def _as_number(value, name: str, kind: type = float):
    """``value`` as ``kind`` (``float`` or ``int``), or a ConfigError naming ``name``.

    JSON ``null``, ``true``/``false``, strings and containers are not
    numbers; ``int()``/``float()`` would raise a bare TypeError on some of
    them and silently accept the others. An ``int`` field takes an integral
    float such as ``16.0`` but not ``2.9``, which ``int()`` would truncate.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def _number(mapping: dict, key: str, where: str, default=_REQUIRED, kind: type = float):
    """The numeric config field ``mapping[key]``, or ``default`` when the key is absent.

    Without a default the key is required. The value, and the default, go
    through :func:`_as_number`.
    """
    value = _require(mapping, key, where) if default is _REQUIRED else mapping.get(key, default)
    return _as_number(value, f"{key!r} in {where}", kind)


def _section(mapping: dict, key: str, where: str, default=_REQUIRED) -> dict:
    """The config section ``mapping[key]`` as a new dict, or ``default`` when the key is absent.

    Without a default the key is required. A section that is not a JSON
    object (``null``, a number, a list) is a ConfigError naming the key.
    """
    value = _require(mapping, key, where) if default is _REQUIRED else mapping.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} in {where} must be an object, got {value!r}")
    return dict(value)


def _numbers(mapping: dict, key: str, where: str, default=_REQUIRED) -> tuple[int, ...]:
    """A list-valued integer config field, each entry read as by :func:`_number`."""
    values = _require(mapping, key, where) if default is _REQUIRED else mapping.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key!r} in {where} must be a list of numbers, got {values!r}")
    return tuple(_as_number(v, f"entries of {key!r} in {where}", int) for v in values)


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
    init: dict = field(default_factory=lambda: {"kind": "gaussian", "scale": 1.0})
    out_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(
            problem=_section(raw, "problem", "config"),
            method=_section(raw, "method", "config"),
            sampling=_section(raw, "sampling", "config", {}),
            schedules=_section(raw, "schedules", "config", {}),
            epochs=_number(raw, "epochs", "config", 1.0),
            seed=_number(raw, "seed", "config", 0, int),
            trace_interval=_number(raw, "trace_interval", "config", 10, int),
            rolling_f=_number(raw, "rolling_f", "config", 0, int),
            iters_per_epoch=_number(raw, "iters_per_epoch", "config", 100, int),
            init=_section(raw, "init", "config", {"kind": "gaussian", "scale": 1.0}),
            out_dir=raw.get("out_dir"),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.trace_interval < 1:
            raise ConfigError("trace_interval must be >= 1")
        if self.iters_per_epoch < 1:
            raise ConfigError("iters_per_epoch must be >= 1")
        kind = _require(self.problem, "kind", "problem")
        if kind not in ("quadratic", "logistic", "synthetic_sum", "synthetic_logistic"):
            raise ConfigError(f"unknown problem kind {kind!r}")
        try:
            method = MethodSpec(**self.method)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad method spec: {err}") from err
        _build_schedules(self.schedules)  # validates
        _build_policy(self)  # validates
        grad = _section(self.sampling, "grad", "sampling", {})
        mode = grad.get("mode", "fixed")
        if mode not in ALL_MODES:
            raise ConfigError(f"unknown gradient sampling mode {mode!r}")
        if mode == "geometric_epochs" and not grad.get("sizes"):
            raise ConfigError("gradient mode 'geometric_epochs' needs a nonempty 'sizes' table")
        if _number(grad, "cap", "grad sampling", 1, int) < 1:
            raise ConfigError(f"gradient cap must be >= 1, got {grad['cap']}")
        try:
            _check_a_mode(grad.get("a_mode", "identity"), mode, method)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        hess = _section(self.sampling, "hess", "sampling", {})
        if hess.get("kind", "iid") not in ("iid", "cyclic"):
            raise ConfigError(f"unknown Hessian sampler kind {hess.get('kind')!r}")
        if _number(hess, "size", "hess sampling", 32, int) < 1:
            raise ConfigError(f"Hessian sample size must be >= 1, got {hess['size']}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_problem(cfg: ExperimentConfig, data_dir: Optional[str] = None) -> FiniteSumOracle:
    spec = cfg.problem
    kind = spec["kind"]
    if kind == "quadratic":
        return quadratic_generate(
            d=_number(spec, "d", "problem", 100, int),
            keep_prob=_number(spec, "keep_prob", "problem", 0.5),
            seed=_number(spec, "seed", "problem", cfg.seed, int),
        )
    if kind == "logistic":
        x, y = load_dataset(
            _require(spec, "dataset", "problem"),
            data_dir=spec.get("data_dir", data_dir),
            split_seed=_number(spec, "split_seed", "problem", 0, int),
        )
        return LogisticProblem(x, y)
    if kind == "synthetic_logistic":
        x, y = make_synthetic_logistic(
            n=_number(spec, "n", "problem", 400, int),
            d=_number(spec, "d", "problem", 12, int),
            seed=_number(spec, "seed", "problem", 0, int),
        )
        return LogisticProblem(x, y)
    if kind == "synthetic_sum":
        return SyntheticSumProblem.generate(
            n_components=_number(spec, "n_components", "problem", 16, int),
            d=_number(spec, "d", "problem", 20, int),
            seed=_number(spec, "seed", "problem", 0, int),
            curvature=_number(spec, "curvature", "problem", 0.0),
            coupling=_number(spec, "coupling", "problem", 0.0),
            freq=_number(spec, "freq", "problem", 10.0),
            n_ripples=_number(spec, "n_ripples", "problem", 4, int),
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


# Schedule kinds by config section; the first is the section's default kind.
SCHEDULE_KINDS = {
    "alpha": {"constant": AlphaConstant, "two_phase": AlphaTwoPhase, "step_decay": AlphaStepDecay},
    "theta": {"constant": ThetaConstant, "local_det": ThetaLocalDet, "local_stoch": ThetaLocalStoch},
    "iota": {"geometric": IotaGeometric, "super_det": IotaSuperDet, "super_stoch": IotaSuperStoch},
}


def _build_schedule(spec: dict, section: str):
    """The schedule that ``spec[section]`` describes.

    The section's keys are the schedule class's fields plus ``kind``. A
    field with a default is optional, and each is read as its annotation
    says: ``float`` and ``int`` by :func:`_number`, a tuple of ints by
    :func:`_numbers`.
    """
    raw = _section(spec, section, "schedules", {})
    kinds = SCHEDULE_KINDS[section]
    kind = raw.pop("kind", next(iter(kinds)))
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown {section} schedule kind {kind!r}")
    where = f"{section} schedule"
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where} of kind {kind!r}; expected {names}")
    values = {}
    for f in fields(cls):
        default = _REQUIRED if f.default is MISSING else f.default
        if hints[f.name] in (float, int):
            values[f.name] = _number(raw, f.name, where, default, hints[f.name])
        else:
            values[f.name] = _numbers(raw, f.name, where, default)
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _build_schedules(spec: dict) -> ScheduleSet:
    return ScheduleSet(**{section: _build_schedule(spec, section) for section in SCHEDULE_KINDS})


def _build_controller(cfg: ExperimentConfig, oracle: FiniteSumOracle) -> GradSampleController:
    grad = _section(cfg.sampling, "grad", "sampling", {})
    mode = grad.get("mode", "fixed")
    n = oracle.n_components
    default_cap = n if n is not None else DEFAULT_EXPECTATION_CAP
    cap = _number(grad, "cap", "grad sampling", default_cap, int)
    if n is not None:
        cap = min(cap, n)
    size = _number(grad, "size", "grad sampling", 32, int)
    kwargs = dict(mode=mode, initial_size=_number(grad, "initial_size", "grad sampling", size, int), cap=cap)
    if mode == "geometric_epochs":
        sizes = _numbers(grad, "sizes", "grad sampling")
        kwargs.update(sizes=sizes, epochs_per_block=_number(grad, "epochs_per_block", "grad sampling", 20, int))
        if sizes:  # an empty table is rejected by the controller
            kwargs["initial_size"] = min(sizes[0], cap)
    try:
        return GradSampleController(**kwargs)
    except ValueError as err:
        raise ConfigError(f"bad gradient controller: {err}") from err


def _build_hess_sampler(cfg: ExperimentConfig, oracle: FiniteSumOracle):
    hess = _section(cfg.sampling, "hess", "sampling", {})
    kind = hess.get("kind", "iid")
    size = _number(hess, "size", "hess sampling", 32, int)
    if oracle.n_components is not None:
        size = min(size, oracle.n_components)
    if kind == "cyclic" and oracle.n_components is None:
        raise ConfigError("cyclic Hessian sampling requires a finite-sum problem")
    try:
        if kind == "cyclic":
            return CyclicSampler(oracle.n_components, size, hess.get("seed"))
        return IidSampler(size)
    except ValueError as err:
        raise ConfigError(f"bad Hessian sampler: {err}") from err


def _build_policy(cfg: ExperimentConfig) -> UpdateFrequencyPolicy:
    pol = _section(cfg.sampling, "policy", "sampling", {})
    try:
        return UpdateFrequencyPolicy(
            warmup=_number(pol, "warmup", "update policy", 0, int), hf=_number(pol, "hf", "update policy", 1, int)
        )
    except ValueError as err:
        raise ConfigError(f"bad update policy: {err}") from err


def _initial_point(cfg: ExperimentConfig, oracle: FiniteSumOracle, rng: np.random.Generator) -> NDArray:
    kind = cfg.init.get("kind", "gaussian")
    if kind == "gaussian":
        return _number(cfg.init, "scale", "init", 1.0) * rng.standard_normal(oracle.dim)
    if kind == "zeros":
        return np.zeros(oracle.dim)
    if kind == "near_optimum":
        opt = oracle.optimum()
        if opt is None:
            raise ConfigError("init kind 'near_optimum' needs a problem with a known optimum")
        direction = rng.standard_normal(oracle.dim)
        direction /= np.linalg.norm(direction)
        return opt[0] + _number(cfg.init, "radius", "init", 0.5) * direction
    raise ConfigError(f"unknown init kind {kind!r}")


def build_context(cfg: ExperimentConfig, data_dir: Optional[str] = None) -> tuple[RunContext, NDArray]:
    oracle = build_problem(cfg, data_dir)
    streams = rng_mod.streams(cfg.seed)
    controller = _build_controller(cfg, oracle)
    ctx = RunContext(
        oracle=oracle,
        method=MethodSpec(**cfg.method),
        controller=controller,
        hess_sampler=_build_hess_sampler(cfg, oracle),
        schedules=_build_schedules(cfg.schedules),
        policy=_build_policy(cfg),
        rngs=streams,
        iters_per_epoch=cfg.iters_per_epoch,
        trace_interval=cfg.trace_interval,
        a_mode=_section(cfg.sampling, "grad", "sampling", {}).get("a_mode", "identity"),
    )
    w0 = _initial_point(cfg, oracle, streams["init"])
    return ctx, w0


# ---------------------------------------------------------------------------
# Running and persistence
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[TraceRecord]
    summary: dict
    w_final: NDArray


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
    """Execute one config; persist trace + summary if an output dir is set."""
    t0 = time.perf_counter()
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
        "method": cfg.method.get("name"),
        "final_f": f_final,
        "best_f": min(measured + [f_final]) if measured else f_final,
        "diverged": bool(state.diverged),
        "iterations": state.k,
        "epochs": records[-1].epoch if records else 0.0,
        "eec": records[-1].eec if records else 0.0,
        "hvp_probes": state.hvp_probes,
        "final_grad_norm": records[-1].grad_norm if records else None,
        "final_dist_to_opt": records[-1].dist_to_opt if records else None,
        "wall_ms": (time.perf_counter() - t0) * 1e3,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "config": cfg.to_dict(),
    }
    target = out_dir or cfg.out_dir
    if target:
        base = Path(target)
        _atomic_write(base / "trace.csv", format_trace(records, cfg.hash(), cfg.seed))
        _atomic_write(base / "summary.json", strict_json(summary, indent=2, sort_keys=True) + "\n")
    return RunResult(config=cfg, records=records, summary=summary, w_final=state.w)


def _run_one(args) -> dict:
    cfg_dict, data_dir, out_dir = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = run_experiment(cfg, data_dir=data_dir, out_dir=out_dir)
    return result.summary


# OpenBLAS and OpenMP read these once, when numpy loads. Unset, each worker
# starts one BLAS thread per core, so parallel workers oversubscribe the
# cores between them.
_WORKER_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _one_blas_thread_for_workers():
    """Set each unset ``_WORKER_BLAS_THREAD_VARS`` to 1 while workers are spawned.

    A spawned process inherits this environment and loads numpy afresh; a
    value the caller set is left as it is. The variables are unset again on
    exit.
    """
    added = [var for var in _WORKER_BLAS_THREAD_VARS if var not in os.environ]
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
    jobs = [(cfg.to_dict(), data_dir, out) for cfg, out in zip(configs, out_dirs)]
    if parallel <= 1 or len(jobs) <= 1:
        return [_run_one(job) for job in jobs]
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
    geometric mean of the ratios (the average linear rate). Only errors
    above the numerical floor participate.
    """

    k_lo: int
    k_hi: int
    n_points: int
    slope: float
    intercept: float
    rho_bar: float


def estimate_rates(errors: Sequence[float], k_start: int = 1, k_end: Optional[int] = None) -> RateReport:
    """Fit the decay rate of an error sequence ``e_k`` indexed from 0.

    Ratios with either endpoint at or below the 1e-13 floor are dropped.
    Raises ``ValueError`` with fewer than 10 usable ratios.
    """
    e = np.asarray(errors, dtype=float)
    if k_end is None:
        k_end = len(e) - 1
    ks, logs = [], []
    ratios = []
    for k in range(max(k_start, 0), min(k_end, len(e) - 1)):
        if e[k] > RATE_FLOOR and e[k + 1] > RATE_FLOOR:
            rho = e[k + 1] / e[k]
            if rho > 0 and math.isfinite(rho):
                ks.append(k + 1)
                logs.append(math.log(rho))
                ratios.append(rho)
    if len(ks) < 10:
        raise ValueError(
            f"only {len(ks)} usable ratios above the {RATE_FLOOR} floor; need at least 10"
        )
    x = np.log(np.asarray(ks, dtype=float))
    y = np.asarray(logs)
    slope, intercept = np.polyfit(x, y, 1)
    rho_bar = float(np.exp(np.mean(y)))
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


def sweep(
    configs: Sequence[ExperimentConfig],
    data_dir: Optional[str] = None,
    parallel: int = 1,
) -> tuple[list[dict], str]:
    """Run a config grid and reduce to one row per (method, alpha schedule,
    rank, gradient mode).

    A row's ``alpha`` is its schedule's first step size.

    Diverged runs are marked with an 'x' and excluded from means. Returns
    the raw rows plus an aligned-text table.
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")
    summaries = run_many(configs, data_dir=data_dir, parallel=parallel)
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for cfg, summ in zip(configs, summaries):
        method = MethodSpec(**cfg.method)
        key = (
            method.name,
            _build_schedule(cfg.schedules, "alpha"),
            method.rank,
            cfg.sampling.get("grad", {}).get("mode", "fixed"),
        )
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(summ)
    rows = []
    for key in order:
        summs = groups[key]
        finals = [s["final_f"] for s in summs if not s["diverged"]]
        row = {
            "method": key[0],
            "alpha": key[1].at(0),
            "rank": key[2],
            "grad_mode": key[3],
            "seeds": len(summs),
            "diverged": sum(1 for s in summs if s["diverged"]),
            "mean_final_f": float(np.mean(finals)) if finals else None,
            "finals": [None if s["diverged"] else s["final_f"] for s in summs],
        }
        rows.append(row)
    return rows, _format_table(rows)


def _format_table(rows: list[dict]) -> str:
    headers = ["method", "alpha", "rank", "grad_mode", "seeds", "mean_final_f"]
    table = [headers]
    for row in rows:
        if row["mean_final_f"] is None:
            mean = "x"
        else:
            mean = f"{row['mean_final_f']:.6g}"
            if row["diverged"]:
                mean += f" ({row['diverged']}x)"
        table.append(
            [
                str(row["method"]),
                str(row["alpha"]),
                str(row["rank"]),
                str(row["grad_mode"]),
                str(row["seeds"]),
                mean,
            ]
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def sweep_to_csv(rows: list[dict]) -> str:
    headers = ["method", "alpha", "rank", "grad_mode", "seeds", "diverged", "mean_final_f"]
    lines = [",".join(headers)]
    for row in rows:
        lines.append(
            ",".join(
                "" if row[h] is None else str(row[h]) for h in headers
            )
        )
    return "\n".join(lines) + "\n"
