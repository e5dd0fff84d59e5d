"""Per-layer accounting for the hessavg benchmark, measured from outside.

A :class:`Tracer` replaces public functions and methods of the package
with timing wrappers for the length of a ``with tracer.installed():``
block and puts the originals back on exit. Nothing under ``src/`` is
edited. Functions are wrapped in every ``hessavg`` module that holds
them, because several modules import them by name (``spd_solve`` and
``pd_modify`` live on in ``averaging``, ``optimizers`` and ``problems``;
``harness`` calls ``run`` and ``format_trace`` through its own names).

A span's self time is its duration minus the durations of the wrapped
calls made inside it, so ``grad_full -> grad_sub -> component_grads`` and
``precondition -> modified -> pd_modify -> sym_eig`` are each billed once.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from hessavg import averaging, harness, linalg, optimizers, problems, sampling, trace

# (module that defines the function, attribute, span name)
FUNCTIONS = (
    (linalg, "sym_eig", "linalg.sym_eig"),
    (linalg, "pd_modify", "linalg.pd_modify"),
    (linalg, "spd_solve", "linalg.spd_solve"),
    (linalg, "weighted_norm_sq", "linalg.weighted_norm_sq"),
    (linalg, "matrix_abs", "linalg.matrix_abs"),
    (averaging, "hutchinson_diag", "averaging.hutchinson"),
    (optimizers, "step", "optimizers.step"),
    (optimizers, "run", "optimizers.run"),
    (harness, "build_context", "harness.build_context"),
    (trace, "format_trace", "trace.format_trace"),
)

ORACLE_METHODS = (
    "loss_full",
    "grad_full",
    "loss_sub",
    "grad_sub",
    "component_grads",
    "hvp_sub",
    "hessian_sub",
    "draw_sample",
    "optimum",
)

# (class, method, span name); a method is wrapped on each class that defines it.
METHODS = tuple(
    (cls, name, f"problems.{name}")
    for cls in (
        problems.FiniteSumOracle,
        problems.QuadraticProblem,
        problems.LogisticProblem,
        problems.SyntheticSumProblem,
    )
    for name in ORACLE_METHODS
) + (
    (averaging.FullAverageState, "update", "averaging.update"),
    (averaging.FullAverageState, "modified", "averaging.modified"),
    (averaging.FullAverageState, "precondition", "averaging.precondition"),
    (averaging.DiagAverageState, "update", "averaging.update"),
    (averaging.DiagAverageState, "precondition", "averaging.precondition"),
    (sampling.CyclicSampler, "next_block", "sampling.next_block"),
    (sampling.IidSampler, "next_block", "sampling.next_block"),
    (sampling.GradSampleController, "record_test", "sampling.record_test"),
)

# The two spans the untraced run needs for setup_s and per-step times.
LIGHT = ("harness.build_context", "optimizers.step")

# Oracle calls that gather component rows by fancy indexing. A call nested
# inside another of them (grad_full -> grad_sub) gathers only once.
GATHERING = frozenset(
    f"problems.{name}" for name in ("loss_sub", "grad_sub", "component_grads", "hvp_sub")
)

# The per-component array that dominates a gather, by oracle class.
ROW_ARRAYS = {problems.LogisticProblem: "x", problems.SyntheticSumProblem: "h"}


def row_bytes(oracle) -> int:
    """Bytes of the dominant per-component array for one component."""
    attr = ROW_ARRAYS.get(type(oracle))
    if attr is None:
        return 0
    rows = getattr(oracle, attr)
    return rows.nbytes // rows.shape[0]


class Tracer:
    """Wraps hessavg's public calls and accumulates counts and times.

    ``spans`` selects which span names to wrap (all of them by default).
    Per-call durations are kept for the ``LIGHT`` spans. ``clock`` is
    injectable so self-time accounting can be tested exactly.
    """

    def __init__(
        self,
        spans: Optional[tuple[str, ...]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.spans = spans
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.last_result: dict[str, object] = {}
        # Each active span is [name, seconds spent in wrapped children].
        self._stack: list[list] = []

    # -- accounting ----------------------------------------------------------

    def inside(self, names) -> bool:
        """True when a span with one of ``names`` is active."""
        return any(frame[0] in names for frame in self._stack)

    def wrap(self, fn: Callable, name: str) -> Callable:
        hook = HOOKS.get(name)
        keep = name in LIGHT
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if keep:
                    self.samples[name].append(dur)
            if hook is not None:
                hook(self, args, result)
            self.last_result[name] = result
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _wanted(self, name: str) -> bool:
        return self.spans is None or name in self.spans

    @contextmanager
    def installed(self):
        """Wrap the selected calls; restore every original on exit."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for key, m in list(sys.modules.items()) if key == "hessavg" or key.startswith("hessavg.")]
        try:
            for owner, attr, name in FUNCTIONS:
                if not self._wanted(name):
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapped)
            for cls, attr, name in METHODS:
                if not self._wanted(name) or attr not in cls.__dict__:
                    continue
                original = cls.__dict__[attr]
                restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Hooks: counts read from a call's arguments or result. ``args[0]`` is
# ``self`` for methods.
# ---------------------------------------------------------------------------


def _count_shift(tracer: Tracer, args, result) -> None:
    if result[1]:
        tracer.counters["pd_shifts"] += 1


def _count_gather(tracer: Tracer, args, result) -> None:
    if not tracer.inside(GATHERING):
        oracle, sample = args[0], args[2]
        tracer.counters["gather_bytes"] += sample.size * row_bytes(oracle)


def _count_hvp(tracer: Tracer, args, result) -> None:
    _count_gather(tracer, args, result)
    if not tracer.inside(("problems.hessian_sub",)):
        v = args[3]
        tracer.counters["hvp_columns"] += 1 if v.ndim == 1 else v.shape[1]


def _count_hessian(tracer: Tracer, args, result) -> None:
    tracer.counters["hvp_columns"] += args[0].dim


def _count_test(tracer: Tracer, args, result) -> None:
    if args[1]:
        tracer.counters["norm_test_passes"] += 1


def _count_in_step(kind: str, tracer: Tracer, args, result) -> None:
    # Kernels per step are those the step loop asks for; the optimum that
    # the trace snapshot looks up is the problems layer's cost, not the
    # method's, and is counted in the totals only.
    if tracer.inside(("optimizers.step",)) and not tracer.inside(("problems.optimum",)):
        tracer.counters[kind] += 1


HOOKS: dict[str, Callable] = {
    "linalg.pd_modify": _count_shift,
    "linalg.sym_eig": functools.partial(_count_in_step, "eigh_in_step"),
    "linalg.spd_solve": functools.partial(_count_in_step, "cholesky_in_step"),
    "problems.loss_sub": _count_gather,
    "problems.grad_sub": _count_gather,
    "problems.component_grads": _count_gather,
    "problems.hvp_sub": _count_hvp,
    "problems.hessian_sub": _count_hessian,
    "sampling.record_test": _count_test,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run_experiment call
# ---------------------------------------------------------------------------

PROBLEM_CALLS = ("grad_full", "loss_full", "grad_sub", "component_grads", "loss_sub", "hessian_sub", "hvp_sub", "draw_sample", "optimum")
# Calls whose cost sits in their children (grad_full -> grad_sub, optimum ->
# loss_full), so their total time is reported beside their self time.
FULL_PASS_CALLS = ("grad_full", "loss_full", "optimum")

# (name, unit) in report order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("linalg.eigh_per_step", "count"),
    ("linalg.cholesky_per_step", "count"),
    ("linalg.sym_eig.self_ms", "ms"),
    ("linalg.pd_modify.self_ms", "ms"),
    ("linalg.spd_solve.self_ms", "ms"),
    ("linalg.pd_modify.calls", "count"),
    ("linalg.spd_solve.calls", "count"),
    ("linalg.weighted_norm_sq.calls", "count"),
    ("linalg.pd_shifts", "count"),
    ("problems.full_passes_per_step", "count"),
    ("problems.gather_mb", "MB"),
    ("problems.hvp_columns", "count"),
) + tuple(
    (f"problems.{call}.{kind}", unit) for call in PROBLEM_CALLS for kind, unit in (("calls", "count"), ("self_ms", "ms"))
) + tuple((f"problems.{call}.total_ms", "ms") for call in FULL_PASS_CALLS) + (
    ("averaging.update.self_ms", "ms"),
    ("averaging.precondition.self_ms", "ms"),
    ("averaging.modified.calls", "count"),
    ("averaging.hutchinson.self_ms", "ms"),
    ("sampling.norm_tests", "count"),
    ("sampling.norm_test_pass_ratio", "ratio"),
    ("sampling.batch_growths", "count"),
    ("sampling.final_batch", "count"),
    ("sampling.next_block.self_ms", "ms"),
    ("optimizers.steps", "count"),
    ("optimizers.step.self_ms", "ms"),
    ("harness.build_context.ms", "ms"),
    ("harness.finish_ms", "ms"),
    ("trace.format_trace.self_ms", "ms"),
    ("trace.csv_bytes", "bytes"),
)


def layer_metrics(tracer: Tracer, records, run_wall_s: float) -> dict[str, float]:
    """Per-layer values for one ``run_experiment`` call traced by ``tracer``.

    ``records`` are the run's trace records and ``run_wall_s`` the wall time
    of the whole call. Times are totals over the call, in ms.
    """
    calls = tracer.calls

    def ms(name: str) -> float:
        return tracer.self_s[name] * 1e3

    steps = calls["optimizers.step"]
    tests = calls["sampling.record_test"]
    sizes = [r.x_size for r in records]
    out = {
        "linalg.eigh_per_step": tracer.counters["eigh_in_step"] / steps,
        "linalg.cholesky_per_step": tracer.counters["cholesky_in_step"] / steps,
        "linalg.sym_eig.self_ms": ms("linalg.sym_eig"),
        "linalg.pd_modify.self_ms": ms("linalg.pd_modify"),
        "linalg.spd_solve.self_ms": ms("linalg.spd_solve"),
        "linalg.pd_modify.calls": calls["linalg.pd_modify"],
        "linalg.spd_solve.calls": calls["linalg.spd_solve"],
        "linalg.weighted_norm_sq.calls": calls["linalg.weighted_norm_sq"],
        "linalg.pd_shifts": tracer.counters["pd_shifts"],
        "problems.full_passes_per_step": (calls["problems.grad_full"] + calls["problems.loss_full"]) / steps,
        "problems.gather_mb": tracer.counters["gather_bytes"] / 1e6,
        "problems.hvp_columns": tracer.counters["hvp_columns"],
    }
    for call in PROBLEM_CALLS:
        out[f"problems.{call}.calls"] = calls[f"problems.{call}"]
        out[f"problems.{call}.self_ms"] = ms(f"problems.{call}")
    for call in FULL_PASS_CALLS:
        out[f"problems.{call}.total_ms"] = tracer.total_s[f"problems.{call}"] * 1e3
    out.update(
        {
            "averaging.update.self_ms": ms("averaging.update"),
            "averaging.precondition.self_ms": ms("averaging.precondition"),
            "averaging.modified.calls": calls["averaging.modified"],
            "averaging.hutchinson.self_ms": ms("averaging.hutchinson"),
            "sampling.norm_tests": tests,
            "sampling.norm_test_pass_ratio": tracer.counters["norm_test_passes"] / tests if tests else 0.0,
            "sampling.batch_growths": sum(1 for a, b in zip(sizes, sizes[1:]) if b > a),
            "sampling.final_batch": sizes[-1],
            "sampling.next_block.self_ms": ms("sampling.next_block"),
            "optimizers.steps": steps,
            "optimizers.step.self_ms": ms("optimizers.step"),
            "harness.build_context.ms": tracer.total_s["harness.build_context"] * 1e3,
            "harness.finish_ms": (run_wall_s - tracer.total_s["harness.build_context"] - tracer.total_s["optimizers.run"]) * 1e3,
            "trace.format_trace.self_ms": ms("trace.format_trace"),
            "trace.csv_bytes": len(tracer.last_result.get("trace.format_trace", "")),
        }
    )
    return out
