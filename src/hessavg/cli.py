"""The ``hessavg`` subcommands, dispatched by :func:`cli_dispatch`.

The command's entry is ``hessavg.__main__``, with ``python -m hessavg`` as
its module form. It runs with one BLAS thread unless the caller sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, so its traces are those of
a pinned :func:`~hessavg.harness.run_experiment`.

Exit codes: 0 on success, 1 on usage/validation errors, 2 on runtime
failures (network, I/O, numerical breakdown).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import MANIFESTS, DatasetUnavailable, default_data_dir, fetch_dataset
from .harness import (
    ConfigError,
    ExperimentConfig,
    estimate_rates,
    run_experiment,
    strict_json,
    sweep,
    sweep_to_csv,
)
from .optimizers import eec
from .problems import quadratic_generate
from .trace import parse_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hessavg", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_fetch = sub.add_parser("fetch-data", help="download and verify a dataset")
    p_fetch.add_argument("name", choices=sorted(MANIFESTS))
    p_fetch.add_argument("--data-dir", default=None)

    p_gen = sub.add_parser("gen-quadratic", help="print the spectrum and optimum of a masked quadratic problem")
    p_gen.add_argument("--d", type=int, default=100)
    p_gen.add_argument("--keep-prob", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run one experiment config (JSON)")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory for trace + summary")
    p_run.add_argument("--data-dir", default=None)

    p_sweep = sub.add_parser("sweep", help="run every config in a directory")
    p_sweep.add_argument("config_dir", type=Path)
    p_sweep.add_argument("--out", default=None, help="directory for per-run artifacts + table")
    p_sweep.add_argument("--data-dir", default=None)
    p_sweep.add_argument("--parallel", type=int, default=1)

    p_rates = sub.add_parser("rates", help="fit convergence rates from a trace CSV")
    p_rates.add_argument("trace", type=Path)
    p_rates.add_argument("--col", default="dist_to_opt", choices=["dist_to_opt", "f", "grad_norm"])
    p_rates.add_argument("--k-start", type=int, default=1)
    p_rates.add_argument("--k-end", type=int, default=None)

    p_eec = sub.add_parser("eec", help="epoch-equivalent compute calculator")
    p_eec.add_argument("--epochs", type=float, required=True)
    p_eec.add_argument("--rank", type=int, default=0)
    p_eec.add_argument("--hf", type=int, default=1)

    return parser


def _cmd_fetch(args) -> int:
    manifest = MANIFESTS[args.name]
    try:
        path = fetch_dataset(manifest, default_data_dir(args.data_dir))
    except DatasetUnavailable as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(path)
    return 0


def _cmd_gen_quadratic(args) -> int:
    problem = quadratic_generate(d=args.d, keep_prob=args.keep_prob, seed=args.seed)
    eigs = np.linalg.eigvalsh(problem.a)
    kappa = (eigs[-1] / eigs[0]) ** 2
    _, f_star = problem.optimum()
    print(
        json.dumps(
            {
                "d": args.d,
                "keep_prob": args.keep_prob,
                "seed": args.seed,
                "lambda_min": eigs[0],
                "lambda_max": eigs[-1],
                "kappa_ata": kappa,
                "f_star": f_star,
            },
            indent=2,
        )
    )
    return 0


def _load_config(path: Path, seed_override=None) -> ExperimentConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if seed_override is not None and isinstance(raw, dict):
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    result = run_experiment(cfg, data_dir=args.data_dir, out_dir=args.out)
    print(strict_json({k: v for k, v in result.summary.items() if k != "config"}, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    paths = sorted(args.config_dir.glob("*.json"))
    if not paths:
        raise ConfigError(f"no *.json configs in {args.config_dir}")
    configs = [_load_config(p) for p in paths]
    out_base = Path(args.out) if args.out else None
    out_dirs = [str(out_base / path.stem) for path in paths] if out_base else None
    rows, table = sweep(configs, data_dir=args.data_dir, out_dirs=out_dirs, parallel=args.parallel)
    print(table, end="")
    if out_base:
        (out_base / "sweep.csv").parent.mkdir(parents=True, exist_ok=True)
        (out_base / "sweep.csv").write_text(sweep_to_csv(rows))
        (out_base / "sweep.txt").write_text(table)
    return 0


def _cmd_rates(args) -> int:
    if not args.trace.exists():
        raise ConfigError(f"trace file not found: {args.trace}")
    _, records = parse_trace(args.trace.read_text())
    values = {
        "dist_to_opt": [r.dist_to_opt for r in records],
        "f": [r.f for r in records],
        "grad_norm": [r.grad_norm for r in records],
    }[args.col]
    series = [v for v in values if v is not None]
    report = estimate_rates(series, k_start=args.k_start, k_end=args.k_end)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def _cmd_eec(args) -> int:
    value = eec(args.epochs, args.rank, args.hf)
    print(int(value) if value == int(value) else value)
    return 0


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "fetch-data": _cmd_fetch,
        "gen-quadratic": _cmd_gen_quadratic,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "rates": _cmd_rates,
        "eec": _cmd_eec,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DatasetUnavailable as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
