#!/usr/bin/env python3
"""Run one benchmark workload against the styletx package in ../src.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 50 --trace 0

Each workload runs in this single process, with BLAS threads capped at the
number of CPUs the process may use. The command prints the environment, the
exact counters, the output checks and every metric by name and unit; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, with --trace 1 the per-layer ones. The full report (and, when
traced, the spans) goes to perfbench/results/. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_program() -> None:
    """Put ../src first on the path and make sure styletx comes from there."""
    src = ROOT / "src"
    if not (src / "styletx" / "__init__.py").is_file():
        print(f"perfbench: no styletx package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import styletx
    if Path(styletx.__file__).resolve().parent != (src / "styletx").resolve():
        print(f"perfbench: styletx imported from {styletx.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: toy sizes for the harness smoke test")
    args = ap.parse_args(argv)

    nproc = cap_blas_threads()
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOAD_NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(nproc)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmpdir:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               Path(tmpdir), args.size)

    values = {**report.get("layers", {}), **report["counters"]} if args.trace else report["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    checks = report["checks"]
    checks["metrics_finite"] = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = all(checks.values())

    size = "" if args.size == "full" else f"-{args.size}"
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{size}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({"environment": env, **report}, indent=1))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("samples: " + ", ".join(f"{k}={v}" for k, v in report["samples"].items()))
    print("counters (first training step, exact; matmul GFLOP computed from shapes): "
          + ", ".join(f"{k}={v}" for k, v in report["counters"].items()))
    print("checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in checks.items()))
    print(f"fingerprint: {report['fingerprint']}")
    if tracer is not None:
        print(f"trace: {stem.with_suffix('.spans.jsonl')} ({len(tracer.spans)} spans)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
