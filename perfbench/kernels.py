"""Kernel micro-benchmarks at the paper's MNIST-LR dimension d = 7850.

Each kernel reports its median wall time per call in microseconds, plus
floating-point operations and bytes moved computed from array shapes: one
read or write of 8 bytes per element per numpy pass of the algorithm,
ignoring caches, index arrays and the finiteness scans of input validation.
Model sets use m = 100, c = 20, beta = 20 as in the workloads, except the
direct pairwise path, which needs m*m*d <= 2**24 and runs at m = 20.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from unittest import mock

import numpy as np

D_FEATURES, CLASSES = 784, 10
M, C, TRIM = 100, 20, 20
BATCH, SHARD, VALIDATION = 32, 50, 100


def _time_us(fn, min_calls: int = 3, budget_s: float = 0.25) -> float:
    times = []
    started = perf_counter()
    while len(times) < min_calls or perf_counter() - started < budget_s:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def _gram(m: int, d: int) -> tuple[float, float]:
    """(flops, bytes) of the Gram-matrix pairwise distances of m models."""
    return 2 * m * m * d + 2 * m * d + 4 * m * m, 8 * (3 * m * d + 8 * m * m)


def _krum(m: int, d: int, c: int) -> tuple[float, float]:
    flops, nbytes = _gram(m, d)
    kept = m * (m - c - 2)
    return flops + kept, nbytes + 8 * (2 * m * m + kept + 2 * d)


def _evaluate(n: int, q: int, classes: int, d: int) -> tuple[float, float]:
    """One error-rate or loss pass of an LR model over n instances."""
    return 2 * n * q * classes + 5 * n * classes, 8 * (n * q + d + 3 * n * classes)


def run_kernels(seed: int) -> dict[str, tuple[float, str]]:
    from flrlab import aggregation, attacks, defenses, models
    from flrlab.data import synth_blobs

    rng = np.random.default_rng(seed)
    spec = models.ModelSpec("lr", D_FEATURES, CLASSES)
    d = spec.dim
    center = rng.normal(0.0, 0.05, d)
    local = center + rng.normal(0.0, 0.01, (M, d))
    w_received = center + rng.normal(0.0, 0.01, d)
    small = local[:20]
    validation = synth_blobs(CLASSES, VALIDATION // CLASSES, D_FEATURES, 0.3, rng)
    shard = models.shard_objective(spec, synth_blobs(CLASSES, SHARD // CLASSES, D_FEATURES, 0.3, rng))
    trimmed_spec = aggregation.AggregatorSpec("trimmed_mean", assumed_compromised=C, trim_count=TRIM)
    scope = attacks.KnowledgeScope("full", local, w_received)
    attack_spec = attacks.AttackSpec("krum")
    theta = M - 2 * C
    gamma = theta - 2 * C

    evals = []
    krum = attacks.krum
    with mock.patch.object(attacks, "krum", lambda *a, **k: evals.append(1) or krum(*a, **k)):
        attacks.attack_krum(scope, attack_spec, C, np.random.default_rng(seed))
    krum_flops, krum_bytes = _krum(M, d, C)
    bound_flops, bound_bytes = _gram(M - C, d)

    selection = sum((M - r) ** 2 for r in range(theta))
    kept = sum((M - r) * (M - r - C - 2) for r in range(theta))
    gram_flops, gram_bytes = _gram(M, d)
    eval_flops, eval_bytes = _evaluate(VALIDATION, D_FEATURES, CLASSES, d)
    trim_flops = (M - 2 * TRIM) * d + d
    trim_bytes = 8 * (2 * M * d + (M - 2 * TRIM) * d + d)
    grad_flops = 4 * BATCH * D_FEATURES * CLASSES + 6 * BATCH * CLASSES + 2 * d
    grad_bytes = 8 * (4 * BATCH * D_FEATURES + 7 * d)

    # name -> (call, flops, bytes)
    kernels = {
        "pairwise_direct": (lambda: aggregation.pairwise_sq_dists(small), 3 * 20 * 20 * d, 8 * 5 * 20 * 20 * d),
        "pairwise_gram": (lambda: aggregation.pairwise_sq_dists(local), gram_flops, gram_bytes),
        "krum": (lambda: aggregation.krum(local, C), krum_flops, krum_bytes),
        "trimmed_mean": (lambda: aggregation.trimmed_mean(local, TRIM), trim_flops, trim_bytes),
        "median": (lambda: aggregation.median(local), 2 * d, 8 * (2 * M * d + 3 * d)),
        "bulyan": (
            lambda: aggregation.bulyan(local, C, theta, gamma),
            gram_flops + kept + theta * d + gamma * d,
            gram_bytes + 8 * (4 * selection + 8 * theta * d + 3 * gamma * d + 2 * d),
        ),
        "impact_scores": (
            lambda: defenses.impact_scores(local, trimmed_spec, spec, validation),
            (M + 1) * trim_flops + 2 * (M + 1) * eval_flops,
            (M + 1) * trim_bytes + M * 16 * (M - 1) * d + 2 * (M + 1) * eval_bytes,
        ),
        "attack_krum": (
            lambda: attacks.attack_krum(scope, attack_spec, C, np.random.default_rng(seed)),
            len(evals) * krum_flops + bound_flops + 2 * M * d,
            len(evals) * (krum_bytes + 16 * M * d) + bound_bytes,
        ),
        "local_update": (
            lambda: models.local_update(shard, w_received, 0.5, 1, BATCH, rng),
            grad_flops,
            grad_bytes,
        ),
    }
    out = {}
    for name, (call, flops, nbytes) in kernels.items():
        out[f"kernel.{name}.us"] = (_time_us(call), "us")
        out[f"kernel.{name}.flops"] = (float(flops), "flop-computed")
        out[f"kernel.{name}.bytes"] = (float(nbytes), "B-computed")
    return out
