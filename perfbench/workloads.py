"""Benchmark workloads and the bootstrap that imports ``flrlab`` from this checkout.

Nothing here imports numpy at module level: BLAS reads its thread count when
numpy is first imported, so :func:`load_flrlab` pins it before that happens.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: on the 2-core reference machine it gave lower and steadier
# iteration times than two (krum-craft-union p50 101-110 ms against 111-131 ms).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The paper's MNIST-LR setting on MNIST-shaped synthetic data (d = 7850).
# Every other ExperimentConfig field keeps its default, including
# iterations=100 and the 5000/2000 train/test split.
BASE = dict(synth_features=784, synth_classes=10, num_devices=100, compromised=20, model="lr")

WORKLOADS = {
    "fedavg-clean": dict(rule="mean", attack="none", defense="none"),
    "krum-craft-union": dict(rule="krum", attack="craft", knowledge="full", defense="union"),
    "trmean-craft-err": dict(rule="trimmed_mean", attack="craft", knowledge="full", defense="err"),
}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/flrlab`` to benchmark."""


def load_flrlab():
    """Pin BLAS threads, then import ``flrlab`` from ``<checkout>/src``.

    Raises MissingProgram when the package is absent or would be imported
    from anywhere else.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "flrlab" / "__init__.py").is_file():
        raise MissingProgram(f"no flrlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    flrlab = importlib.import_module("flrlab")
    if Path(flrlab.__file__).resolve().parent != SRC / "flrlab":
        raise MissingProgram(f"flrlab imported from {flrlab.__file__}, not from {SRC}")
    return flrlab


def settings_hash(name: str, seed: int) -> str:
    """Hash of the ExperimentConfig fields the benchmark sets for a workload and seed.

    Unlike ``flrlab.harness.config_hash`` it leaves out the fields kept at
    their defaults, so a new ExperimentConfig field does not change it.
    """
    text = json.dumps({**BASE, **WORKLOADS[name], "seed": seed}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def workload_config(name: str, seed: int, **overrides):
    """The ExperimentConfig of a workload, seeded with the benchmark's --seed."""
    from flrlab.harness import ExperimentConfig

    return ExperimentConfig(**{**BASE, **WORKLOADS[name], "seed": seed, **overrides})
