"""Output checks: record sanity, recorded test-error trajectories, and
independent references of the aggregation rules the workloads use.

The references re-derive each rule from its definition with a different
algorithm than ``flrlab.aggregation`` (direct distances instead of a Gram
matrix, partial sums instead of a full sort), so a fast path that changes
the answer shows here.  ``tests/oracles.py`` has pure-Python oracles for the
same rules, but at d = 7850 they take seconds per call, too slow to run on
every iteration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import settings_hash

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Largest allowed |test_error - recorded test_error| at any iteration: 20 of
# the 2000 test points.  Runs on one machine match exactly; the slack admits
# floating-point reorderings that flip a few near-boundary predictions.
TEST_ERROR_TOLERANCE = 0.01
GLOBAL_MODEL_RTOL = 1e-9
GLOBAL_MODEL_ATOL = 1e-12


def record_problems(record) -> list[str]:
    """Problems with one MetricsRecord: non-finite values or error rates outside [0, 1]."""
    problems = []
    values = {"train_loss": record.train_loss, "test_error": record.test_error,
              "validation_error": record.validation_error}
    if record.attack_shift is not None:
        values["attack_shift"] = record.attack_shift
    for key, value in values.items():
        if not math.isfinite(value):
            problems.append(f"iteration {record.iteration}: {key} is {value}")
    for key in ("test_error", "validation_error"):
        if not 0.0 <= values[key] <= 1.0:
            problems.append(f"iteration {record.iteration}: {key} {values[key]} outside [0, 1]")
    return problems


def load_reference(workload: str, seed: int) -> tuple[list[float] | None, list[str]]:
    """Recorded per-iteration test error for (workload, seed), or None; and
    a problem if the record was made with other workload settings."""
    if not REFERENCE.exists():
        return None, []
    entry = json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        return None, []
    current = settings_hash(workload, seed)
    if entry["settings_hash"] != current:
        return None, [f"reference.json is stale for {workload} seed {seed}: recorded with settings "
                      f"{entry['settings_hash']}, now {current}; re-record it with record_reference.py"]
    return entry["test_error"], []


def trajectory_problems(records, reference: list[float]) -> list[str]:
    """Iterations whose test error is further than the tolerance from the recorded one."""
    return [
        f"iteration {r.iteration}: test_error {r.test_error} vs recorded {reference[r.iteration]}"
        for r in records
        if abs(r.test_error - reference[r.iteration]) > TEST_ERROR_TOLERANCE
    ]


def reference_mean(models: np.ndarray) -> np.ndarray:
    return models.sum(axis=0) / models.shape[0]


def reference_trimmed_mean(models: np.ndarray, trim: int) -> np.ndarray:
    """Total minus the ``trim`` largest and smallest values, per coordinate."""
    m = models.shape[0]
    if trim == 0:
        return reference_mean(models)
    low = np.partition(models, trim - 1, axis=0)[:trim].sum(axis=0)
    high = np.partition(models, m - trim, axis=0)[m - trim :].sum(axis=0)
    return (models.sum(axis=0) - low - high) / (m - 2 * trim)


def reference_krum_scores(models: np.ndarray, assumed_compromised: int) -> np.ndarray:
    """Per model: sum of squared distances to its m-c-2 nearest other models."""
    m = models.shape[0]
    scores = np.empty(m)
    for i in range(m):
        dists = np.delete(((models - models[i]) ** 2).sum(axis=1), i)
        scores[i] = np.sort(dists)[: m - assumed_compromised - 2].sum()
    return scores


def global_model_problems(config, survivors: np.ndarray, new_global: np.ndarray) -> list[str]:
    """Compare the aggregate of the defense survivors with the reference rule."""
    spec = config.aggregator_spec()
    if spec.rule == "krum":
        scores = reference_krum_scores(survivors, spec.assumed_compromised)
        chosen = np.flatnonzero((survivors == new_global).all(axis=1))
        if chosen.size == 0:
            return ["krum output is not one of the survivors"]
        if scores[chosen].min() > scores.min() * (1 + GLOBAL_MODEL_RTOL):
            return [f"krum chose a model scoring {scores[chosen].min()} over the minimum {scores.min()}"]
        return []
    if spec.rule == "mean":
        expected = reference_mean(survivors)
    elif spec.rule == "trimmed_mean":
        expected = reference_trimmed_mean(survivors, spec.trim_count)
    else:
        return []  # no reference for this rule; the workloads do not use it
    if not np.allclose(new_global, expected, rtol=GLOBAL_MODEL_RTOL, atol=GLOBAL_MODEL_ATOL):
        gap = float(np.max(np.abs(new_global - expected)))
        return [f"{spec.rule} differs from the reference by up to {gap}"]
    return []
