"""Experiment configuration, execution, persistence, and rate fitting.

Configs are JSON documents validated into dataclasses. A run writes two
artifacts atomically into its output directory: ``trace.csv`` (versioned
schema, byte-reproducible given config and seed) and ``summary.json``
(final/best objective, divergence flag, epoch-equivalent compute, seed,
config echo and hash). Sweeps execute many configs, optionally across
processes, and reduce to a summary table in config order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

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
    run,
)
from .problems import (
    FiniteSumOracle,
    LogisticProblem,
    SyntheticSumProblem,
    make_synthetic_logistic,
    quadratic_generate,
)
from .sampling import ALL_MODES, CyclicSampler, GradSampleController, IidSampler
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
            problem=dict(_require(raw, "problem", "config")),
            method=dict(_require(raw, "method", "config")),
            sampling=dict(raw.get("sampling", {})),
            schedules=dict(raw.get("schedules", {})),
            epochs=float(raw.get("epochs", 1.0)),
            seed=int(raw.get("seed", 0)),
            trace_interval=int(raw.get("trace_interval", 10)),
            rolling_f=int(raw.get("rolling_f", 0)),
            iters_per_epoch=int(raw.get("iters_per_epoch", 100)),
            init=dict(raw.get("init", {"kind": "gaussian", "scale": 1.0})),
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
        grad = self.sampling.get("grad", {})
        mode = grad.get("mode", "fixed")
        if mode not in ALL_MODES:
            raise ConfigError(f"unknown gradient sampling mode {mode!r}")
        a_mode = grad.get("a_mode", "identity")
        if a_mode not in ("identity", "inverse_hessian"):
            raise ConfigError(f"a_mode must be 'identity' or 'inverse_hessian', got {a_mode!r}")
        if a_mode == "inverse_hessian" and (mode != "exact_norm_test" or not method.uses_full_hessian):
            raise ConfigError(
                "a_mode 'inverse_hessian' weights the exact norm test by a full Hessian; "
                "it needs mode 'exact_norm_test' and method fan or subnewton"
            )
        hess = self.sampling.get("hess", {})
        if hess.get("kind", "iid") not in ("iid", "cyclic"):
            raise ConfigError(f"unknown Hessian sampler kind {hess.get('kind')!r}")

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "method": self.method,
            "sampling": self.sampling,
            "schedules": self.schedules,
            "epochs": self.epochs,
            "seed": self.seed,
            "trace_interval": self.trace_interval,
            "rolling_f": self.rolling_f,
            "iters_per_epoch": self.iters_per_epoch,
            "init": self.init,
            "out_dir": self.out_dir,
        }

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
            d=int(spec.get("d", 100)),
            keep_prob=float(spec.get("keep_prob", 0.5)),
            seed=int(spec.get("seed", cfg.seed)),
        )
    if kind == "logistic":
        dataset = load_dataset(
            _require(spec, "dataset", "problem"),
            data_dir=spec.get("data_dir", data_dir),
            split_seed=int(spec.get("split_seed", 0)),
        )
        x, y = dataset.to_dense()
        return LogisticProblem(x, y)
    if kind == "synthetic_logistic":
        x, y = make_synthetic_logistic(
            n=int(spec.get("n", 400)),
            d=int(spec.get("d", 12)),
            seed=int(spec.get("seed", 0)),
        )
        return LogisticProblem(x, y)
    if kind == "synthetic_sum":
        return SyntheticSumProblem.generate(
            n_components=int(spec.get("n_components", 16)),
            d=int(spec.get("d", 20)),
            seed=int(spec.get("seed", 0)),
            curvature=float(spec.get("curvature", 0.0)),
            coupling=float(spec.get("coupling", 0.0)),
            freq=float(spec.get("freq", 10.0)),
            n_ripples=int(spec.get("n_ripples", 4)),
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


def _build_schedules(spec: dict) -> ScheduleSet:
    alpha_spec = spec.get("alpha", {"kind": "constant", "alpha": 0.1})
    theta_spec = spec.get("theta", {"kind": "constant", "theta": 0.5})
    iota_spec = spec.get("iota", {"kind": "geometric", "iota0": 0.0, "a": 0.0})

    def bad(which, s):
        return ConfigError(f"unknown {which} schedule kind {s.get('kind')!r}")

    kind = alpha_spec.get("kind", "constant")
    if kind == "constant":
        alpha = AlphaConstant(float(alpha_spec.get("alpha", 0.1)))
    elif kind == "two_phase":
        alpha = AlphaTwoPhase(
            float(_require(alpha_spec, "alpha_global", "alpha schedule")),
            int(_require(alpha_spec, "k_switch", "alpha schedule")),
            float(alpha_spec.get("alpha_local", 1.0)),
        )
    elif kind == "step_decay":
        alpha = AlphaStepDecay(
            float(_require(alpha_spec, "alpha0", "alpha schedule")),
            float(alpha_spec.get("factor", 0.25)),
            tuple(int(m) for m in alpha_spec.get("milestones", ())),
        )
    else:
        raise bad("alpha", alpha_spec)

    kind = theta_spec.get("kind", "constant")
    if kind == "constant":
        theta = ThetaConstant(float(theta_spec.get("theta", 0.5)))
    elif kind == "local_det":
        theta = ThetaLocalDet(
            float(_require(theta_spec, "theta_l", "theta schedule")),
            int(theta_spec.get("k_switch", 0)),
        )
    elif kind == "local_stoch":
        theta = ThetaLocalStoch(
            float(_require(theta_spec, "theta_l", "theta schedule")),
            int(theta_spec.get("k_switch", 0)),
        )
    else:
        raise bad("theta", theta_spec)

    kind = iota_spec.get("kind", "geometric")
    if kind == "geometric":
        iota = IotaGeometric(float(iota_spec.get("iota0", 0.0)), float(iota_spec.get("a", 0.0)))
    elif kind == "super_det":
        iota = IotaSuperDet(
            float(_require(iota_spec, "iota0", "iota schedule")),
            float(_require(iota_spec, "a_l", "iota schedule")),
            int(iota_spec.get("k_switch", 0)),
        )
    elif kind == "super_stoch":
        iota = IotaSuperStoch(
            float(_require(iota_spec, "iota0", "iota schedule")),
            float(_require(iota_spec, "a_l", "iota schedule")),
            int(iota_spec.get("k_switch", 0)),
        )
    else:
        raise bad("iota", iota_spec)

    return ScheduleSet(alpha=alpha, theta=theta, iota=iota)


def _build_controller(cfg: ExperimentConfig, oracle: FiniteSumOracle) -> GradSampleController:
    grad = cfg.sampling.get("grad", {})
    mode = grad.get("mode", "fixed")
    n = oracle.n_components
    default_cap = n if n is not None else 2**16
    cap = int(grad.get("cap", default_cap))
    if n is not None:
        cap = min(cap, n)
    kwargs = dict(
        mode=mode,
        initial_size=int(grad.get("initial_size", grad.get("size", 32))),
        cap=cap,
    )
    if mode == "geometric_epochs":
        kwargs["sizes"] = tuple(int(s) for s in _require(grad, "sizes", "grad sampling"))
        kwargs["epochs_per_block"] = int(grad.get("epochs_per_block", 20))
        kwargs["initial_size"] = min(kwargs["sizes"][0], cap)
    try:
        return GradSampleController(**kwargs)
    except ValueError as err:
        raise ConfigError(f"bad gradient controller: {err}") from err


def _build_hess_sampler(cfg: ExperimentConfig, oracle: FiniteSumOracle):
    hess = cfg.sampling.get("hess", {})
    kind = hess.get("kind", "iid")
    size = int(hess.get("size", 32))
    if oracle.n_components is not None:
        size = min(size, oracle.n_components)
    if kind == "cyclic":
        if oracle.n_components is None:
            raise ConfigError("cyclic Hessian sampling requires a finite-sum problem")
        try:
            return CyclicSampler(oracle.n_components, size, hess.get("seed"))
        except ValueError as err:
            raise ConfigError(str(err)) from err
    return IidSampler(size)


def _build_policy(cfg: ExperimentConfig) -> UpdateFrequencyPolicy:
    pol = cfg.sampling.get("policy", {})
    try:
        return UpdateFrequencyPolicy(warmup=int(pol.get("warmup", 0)), hf=int(pol.get("hf", 1)))
    except ValueError as err:
        raise ConfigError(f"bad update policy: {err}") from err


def _initial_point(cfg: ExperimentConfig, oracle: FiniteSumOracle, rng: np.random.Generator) -> NDArray:
    kind = cfg.init.get("kind", "gaussian")
    if kind == "gaussian":
        return float(cfg.init.get("scale", 1.0)) * rng.standard_normal(oracle.dim)
    if kind == "zeros":
        return np.zeros(oracle.dim)
    if kind == "near_optimum":
        opt = oracle.optimum()
        if opt is None:
            raise ConfigError("init kind 'near_optimum' needs a problem with a known optimum")
        direction = rng.standard_normal(oracle.dim)
        direction /= np.linalg.norm(direction)
        return opt[0] + float(cfg.init.get("radius", 0.5)) * direction
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
        a_mode=cfg.sampling.get("grad", {}).get("a_mode", "identity"),
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
        "config": cfg.to_dict(),
    }
    target = out_dir or cfg.out_dir
    if target:
        base = Path(target)
        _atomic_write(base / "trace.csv", format_trace(records, cfg.hash(), cfg.seed))
        _atomic_write(base / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return RunResult(config=cfg, records=records, summary=summary, w_final=state.w)


def _run_one(args) -> dict:
    cfg_dict, data_dir, out_dir = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = run_experiment(cfg, data_dir=data_dir, out_dir=out_dir)
    return result.summary


def run_many(
    configs: Sequence[ExperimentConfig],
    data_dir: Optional[str] = None,
    out_dirs: Optional[Sequence[Optional[str]]] = None,
    parallel: int = 1,
) -> list[dict]:
    """Run several configs, each isolated; results ordered like the input."""
    if out_dirs is None:
        out_dirs = [None] * len(configs)
    jobs = [(cfg.to_dict(), data_dir, out) for cfg, out in zip(configs, out_dirs)]
    if parallel <= 1 or len(jobs) <= 1:
        return [_run_one(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=parallel) as pool:
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

    def to_dict(self) -> dict:
        return {
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "n_points": self.n_points,
            "slope": self.slope,
            "intercept": self.intercept,
            "rho_bar": self.rho_bar,
        }


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
    """Run a config grid and reduce to one row per (method, alpha, rank).

    Diverged runs are marked with an 'x' and excluded from means. Returns
    the raw rows plus an aligned-text table.
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")
    summaries = run_many(configs, data_dir=data_dir, parallel=parallel)
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for cfg, summ in zip(configs, summaries):
        alpha = cfg.schedules.get("alpha", {}).get("alpha", cfg.schedules.get("alpha", {}).get("alpha0"))
        key = (
            cfg.method.get("name"),
            alpha,
            cfg.method.get("rank", 1),
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
            "alpha": key[1],
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
