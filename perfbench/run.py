"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fedavg-clean --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics and kernel micro-benchmarks.  Every metric is printed with its unit,
then one JSON record line (workload, config hash, environment, checks), then
the result as one JSON object on the last line.  Exits 0 whenever a result
is printed, including runs whose operations failed; exits 2 without a result
when the checkout holds no ``src/flrlab``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

from workloads import BLAS_THREADS, ROOT, WORKLOADS, MissingProgram, load_flrlab, workload_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one flrlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_flrlab()
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # numpy is imported only now, after load_flrlab pinned the BLAS threads.
    import bench
    import checks
    import kernels
    from flrlab.harness import config_hash

    config = workload_config(args.workload, args.seed)
    reference, stale = checks.load_reference(args.workload, args.seed)
    run = bench.measure(config, args.seconds, trace=bool(args.trace), reference=reference)
    run.problems += stale
    if args.trace:
        metrics = bench.per_layer(run)
        metrics.update(kernels.run_kernels(args.seed))
    else:
        metrics = bench.end_to_end(run)
    attempted, failed = bench.ops(run)

    last = next((r for records in reversed(run.experiments) for r in reversed(records)), None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config_hash": config_hash(config),
        "environment": environment(),
        "iterations_timed": run.completed,
        "final_test_error": run.final_test_errors[-1] if run.final_test_errors else None,
        "last_test_error": None if last is None else {"iteration": last.iteration, "value": last.test_error},
        "reference": "none recorded for this seed" if reference is None
        else f"recorded; tolerance {checks.TEST_ERROR_TOLERANCE} on test_error at every iteration",
        "problems": run.problems[:20],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!s:>24} {unit}")
    print(f"ops_attempted {attempted}  ops_failed {failed}  checks {'passed' if not run.problems else 'FAILED'}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
