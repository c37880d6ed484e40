"""MNIST-scale determinism check: each config's ``trial_00.csv`` must keep its recorded sha256.

The golden grid (``test_golden.py``) runs 10 devices for 3 iterations.  These
cases run the paper's MNIST shape instead (784 features, 10 classes, 100
devices, 20 compromised) for 30 iterations at seeds 0-2.  Each run is a
``flrlab run`` subprocess with one BLAS thread, set in its environment before
numpy loads: the bytes of some products depend on the BLAS thread count.

``golden_mnist.json`` maps ``<case>/seed<s>/it<n>`` to the sha256 of the run's
``trial_00.csv``.  Besides the 15 full cases it holds one 5-iteration case,
which tier-1 runs (``test_golden_mnist.py``).

    PYTHONPATH=src python tests/golden_mnist.py            # check every case, about a minute
    PYTHONPATH=src python tests/golden_mnist.py --record   # re-record (only for an intended change)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_mnist.json")
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BASE = dict(synth_features=784, synth_classes=10, num_devices=100, compromised=20)
CASES = {
    "krum-union-full": dict(rule="krum", defense="union", attack="craft", knowledge="full"),
    "krum-err-partial": dict(rule="krum", defense="err", attack="craft", knowledge="partial"),
    "trmean-err-full": dict(rule="trimmed_mean", defense="err", attack="craft", knowledge="full"),
    "median-lfr-partial": dict(rule="median", defense="lfr", attack="craft", knowledge="partial"),
    "mean-mlp": dict(rule="mean", model="mlp"),
}
SEEDS = (0, 1, 2)
ITERATIONS = 30
SMOKE = ("krum-union-full", 0, 5)  # (case, seed, iterations) of the tier-1 case


def key(case: str, seed: int, iterations: int) -> str:
    return f"{case}/seed{seed}/it{iterations}"


def all_runs() -> list[tuple[str, int, int]]:
    return [(case, seed, ITERATIONS) for case in CASES for seed in SEEDS] + [SMOKE]


def csv_sha256(case: str, seed: int, iterations: int) -> str:
    """sha256 of ``trial_00.csv`` from a one-BLAS-thread ``flrlab run`` of the case."""
    settings = {**BASE, **CASES[case], "iterations": iterations}
    env = {**os.environ, **{var: "1" for var in BLAS_ENV}, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as out:
        command = [sys.executable, "-m", "flrlab.cli", "run", "--seed", str(seed), "--out", out]
        for name, value in settings.items():
            command += ["--set", f"{name}={value}"]
        subprocess.run(command, env=env, check=True, capture_output=True)
        return hashlib.sha256((Path(out) / "trial_00.csv").read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"write every hash to {GOLDEN.name}")
    args = parser.parse_args(argv)
    recorded = {} if args.record else json.loads(GOLDEN.read_text())
    hashes, mismatched = {}, []
    for run in all_runs():
        hashes[key(*run)] = csv_sha256(*run)
        if not args.record and hashes[key(*run)] != recorded.get(key(*run)):
            mismatched.append(key(*run))
        print(f"{key(*run)} {hashes[key(*run)]}", flush=True)
    if args.record:
        GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(hashes)} hashes in {GOLDEN}")
        return 0
    print(f"{len(hashes) - len(mismatched)} of {len(hashes)} match" + (f"; differ: {mismatched}" if mismatched else ""))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
