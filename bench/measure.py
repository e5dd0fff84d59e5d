"""Run one workload in-process and report its end-to-end or per-layer metrics.

An untraced run (``trace=False``) repeats ``harness.run_experiment`` for
about ``seconds`` seconds with only ``build_context`` and
``optimizers.step`` wrapped, and reports the six end-to-end metrics. A
traced run makes one untraced reference repeat, then traced repeats, and
reports per-layer metrics plus the tracing overhead (traced minus untraced
``solve_s``). Every repeat is checked: its accuracy gate must hold, it
must not diverge or raise, and its ``trace.csv`` must hash the same as the
first repeat's. A repeat that fails any check counts as failed; none is
dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from hessavg import harness, optimizers
from layers import LIGHT, PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, Workload

MIN_REPEATS = 2  # the trace.csv digest is compared across repeats
# Extra timed build_context calls before each repeat. Spread over the run
# like the repeats, they see the same machine as the solves do.
SETUPS_PER_REPEAT = 2
WARMUP_STEPS = 3
MIN_TAIL = 10  # samples required beyond a reported percentile

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)
PER_LAYER_METRICS = PER_LAYER + (("tracing.overhead_s", "s"),)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples, q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-th percentile, refused without ``min_tail`` samples above it."""
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; need {min_tail}")
    return sorted(samples)[rank - 1]


@dataclass
class Repeat:
    """One ``run_experiment`` call and what its checks found."""

    traced: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    step_ms: list = field(default_factory=list)
    digest: Optional[str] = None
    failure: Optional[str] = None
    layers: Optional[dict] = None

    @property
    def solve_s(self) -> float:
        return self.wall_s - self.setup_s


def mark_digest_mismatches(repeats: list[Repeat]) -> None:
    """Fail each repeat whose trace.csv differs from the first repeat's."""
    reference = next((r.digest for r in repeats if r.digest is not None), None)
    for r in repeats:
        if r.failure is None and r.digest != reference:
            r.failure = "trace.csv differs from the first repeat's"


def failed_share(repeats: list[Repeat]) -> float:
    return sum(r.failure is not None for r in repeats) / len(repeats)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def run_repeat(wl: Workload, cfg: harness.ExperimentConfig, out_dir: Path, traced: bool) -> Repeat:
    tracer = Tracer(spans=None if traced else LIGHT)
    rep = Repeat(traced=traced)
    try:
        with tracer.installed():
            t0 = time.perf_counter()
            result = harness.run_experiment(cfg, out_dir=str(out_dir))
            rep.wall_s = time.perf_counter() - t0
        ctx, w0 = tracer.last_result["harness.build_context"]
        rep.setup_s = tracer.total_s["harness.build_context"]
        rep.step_ms = [s * 1e3 for s in tracer.samples["optimizers.step"]]
        rep.digest = hashlib.sha256((out_dir / "trace.csv").read_bytes()).hexdigest()
        if result.summary["diverged"]:
            rep.failure = "diverged"
        else:
            rep.failure = wl.gate(result, ctx, w0)
        if traced:
            rep.layers = layer_metrics(tracer, result.records, rep.wall_s)
    except Exception as err:  # a raising run is counted as failed, never dropped
        rep.failure = f"raised {type(err).__name__}: {err}"
    return rep


def warm_up(cfg: harness.ExperimentConfig) -> None:
    """Fill caches and finish lazy imports with a few untimed steps."""
    ctx, w0 = harness.build_context(cfg)
    state = optimizers.init_state(ctx.method, ctx.oracle, w0)
    for _ in range(WARMUP_STEPS):
        state, _ = optimizers.step(ctx, state)


def time_setups(cfg: harness.ExperimentConfig, count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        harness.build_context(cfg)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Run:
    """Everything one invocation measured."""

    repeats: list[Repeat] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> Run:
    wl = WORKLOADS[name]
    cfg = harness.ExperimentConfig.from_dict(wl.config(seed))
    warm_up(cfg)
    out = Run()
    repeats, setups = out.repeats, out.setups
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            setups += time_setups(cfg, SETUPS_PER_REPEAT)
            # A traced run's first repeat is the untraced reference.
            rep = run_repeat(wl, cfg, Path(tmp) / f"r{len(repeats)}", traced=trace and bool(repeats))
            repeats.append(rep)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            # Start another repeat only if even the slowest so far would fit.
            if len(repeats) >= MIN_REPEATS and now - start + longest > seconds:
                break
    mark_digest_mismatches(repeats)
    return out


def end_to_end(run: Run) -> dict[str, float]:
    done = [r for r in run.repeats if not r.traced and math.isfinite(r.wall_s)]
    steps = [ms for r in done for ms in r.step_ms]
    return {
        "setup_s": statistics.median(run.setups + [r.setup_s for r in done]),
        "solve_s": statistics.median(r.solve_s for r in done),
        "iter_ms_p50": tail_percentile(steps, 50),
        "iter_ms_p90": tail_percentile(steps, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed_share(run.repeats),
    }


def per_layer(repeats: list[Repeat]) -> dict[str, float]:
    traced = [r for r in repeats if r.layers is not None]
    out = {key: statistics.median(r.layers[key] for r in traced) for key, _ in PER_LAYER}
    untraced = [r.solve_s for r in repeats if not r.traced and math.isfinite(r.wall_s)]
    out["tracing.overhead_s"] = statistics.median(r.solve_s for r in traced) - statistics.median(untraced)
    return out


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas(config: Optional[dict]) -> str:
    blas = (config or {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    return {
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _table(metrics: dict[str, float], units: tuple) -> list[str]:
    width = max(len(k) for k, _ in units)
    return [f"  {key:<{width}}  {metrics[key]:>14.6g} {unit}" for key, unit in units]


def report(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print the report; the last line is the JSON result."""
    print("environment " + json.dumps(environment(root), sort_keys=True))
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}: {WORKLOADS[name].why}")
    run = measure(root, name, seed, seconds, trace)
    repeats = run.repeats
    for i, r in enumerate(repeats):
        kind = "traced" if r.traced else "untraced"
        status = "ok" if r.failure is None else f"FAILED: {r.failure}"
        print(f"  repeat {i} {kind}: wall {r.wall_s:.3f} s, setup {r.setup_s:.3f} s, {len(r.step_ms)} steps, {status}")
    failed = sum(r.failure is not None for r in repeats)
    print(f"  failed_share {failed}/{len(repeats)} = {failed / len(repeats):g}")
    try:
        if trace:
            metrics, units = per_layer(repeats), PER_LAYER_METRICS
            print("  grad_full serves both the exact norm test and the trace snapshot; splitting the")
            print("  two needs spans inside the program. Times are totals per run_experiment call.")
        else:
            metrics, units = end_to_end(run), END_TO_END
            steps = sum(len(r.step_ms) for r in repeats if not r.traced)
            print(f"  iter_ms percentiles over {steps} steps; setup_s over {len(run.setups)} extra set-ups and the repeats'")
    except (ValueError, statistics.StatisticsError) as err:
        print(f"bench: cannot compute metrics: {err}", file=sys.stderr)
        return 1
    print("\n".join(_table(metrics, units)))
    result = {
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }
    print(json.dumps(result))
    return 0
