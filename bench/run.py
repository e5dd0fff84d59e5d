"""hessavg benchmark: one workload per process, BLAS pinned to one thread.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quad_fan --seed 0 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs every workload, each in its own process,
and ends with one JSON line holding every workload's metrics. The last
line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# OpenBLAS reads these once, when numpy loads. Unpinned, the d=500 solves
# ran 2-3x slower, varied by about 25% and changed trace.csv digits.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("quad_fan", "logreg_dan_ntest", "sum_fan_cyclic")
# Time a child may take beyond --seconds for start-up, warm-up and set-ups.
CHILD_SLACK_S = 140


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def run_all(args) -> int:
    """Run each workload in a child process and merge their JSON results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=args.seconds + CHILD_SLACK_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "hessavg" / "__init__.py").is_file():
        print(f"bench: no hessavg sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        raise RuntimeError("numpy loaded before the BLAS thread count was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import measure

    return measure.report(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
