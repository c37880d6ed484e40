"""Rejection defenses: remove suspect local models before aggregation.

ERR drops the c local models whose inclusion raises the validation error
rate the most, LFR the ones that raise the validation cross-entropy the
most, and Union drops anything either would.  c is the aggregator spec's
``assumed_compromised``, the same bound the rule itself assumes.  Impacts
are leave-one-out: aggregate with and without each model and compare on a
small validation set held by the master.  The defenses never see which
devices are actually compromised.

The m leave-one-out aggregates never rerun the rule m times.  Mean,
trimmed mean and median sort each column once and subtract one clipped
value per model from the sum of one window; Krum and Bulyan select within
rows of one pairwise distance matrix, Bulyan with the theta and gamma of
each subset's m-1 models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.aggregation import (
    AggregatorSpec,
    aggregate,
    bulyan_counts,
    bulyan_within,
    krum_select,
    pairwise_sq_dists,
)
from flrlab.core import as_model_matrix
from flrlab.data import Dataset
from flrlab.models import ModelSpec, error_rate, loss, shard_objective

DEFENSE_KINDS = ("none", "err", "lfr", "union")


@dataclass(frozen=True)
class DefenseSpec:
    """Which filter to run and the master's validation data."""

    kind: str
    validation: Dataset | None = None

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind != "none" and (self.validation is None or len(self.validation) == 0):
            raise ValueError(f"{self.kind} defense needs a non-empty validation set")


@dataclass(frozen=True)
class DefenseOutcome:
    survivors: np.ndarray
    removed: tuple[int, ...]


def _loo_aggregates(models: np.ndarray, agg_spec: AggregatorSpec):
    """Yield the aggregate of all m models, then the aggregate without each model in turn.

    Mean, trimmed mean and median average a window of each sorted column,
    trimming beta values per side of the m-1 kept ones: 0, ``trim_count`` and
    (m-2)//2.  Per column, with the m values sorted as s_0 <= ... <= s_{m-1},
    removing value v leaves one of three windows:

    - ``[beta+1, m-beta)`` where v <= s_{beta-1}: ``[beta, m-beta)`` without s_beta;
    - ``[beta, m-1-beta)`` where v >= s_{m-1-beta}: ``[beta, m-beta)`` without s_{m-1-beta};
    - otherwise ``[beta, m-beta)`` without v.

    So each leave-one-out mean is the sum of ``[beta, m-beta)`` minus v clipped
    to [s_beta, s_{m-1-beta}], over m-1-2*beta.  That sum holds only values
    inside the window, so values far outside it add no rounding error.

    Krum and Bulyan build one pairwise distance matrix and select within each
    row subset: Krum once, Bulyan theta times with the counts of the subset's
    m-1 models.  Both are identical to rerunning the rule on the subset.
    """
    m, c = models.shape[0], agg_spec.assumed_compromised
    agg_spec.validate(m - 1)
    if agg_spec.rule in ("mean", "trimmed_mean", "median"):
        yield aggregate(agg_spec, models)
        beta = {"mean": 0, "trimmed_mean": agg_spec.trim_count}.get(agg_spec.rule, (m - 2) // 2)
        ordered = np.sort(models, axis=0)
        window = ordered[beta : m - beta].sum(axis=0)
        low, high = ordered[beta], ordered[m - 1 - beta]
        for row in models:
            yield (window - np.clip(row, low, high)) / (m - 1 - 2 * beta)
        return
    sq = pairwise_sq_dists(models)
    for rows in [np.arange(m)] + [np.flatnonzero(np.arange(m) != i) for i in range(m)]:
        if agg_spec.rule == "krum":
            yield models[krum_select(sq, rows, c)]
        else:
            yield bulyan_within(models, sq, rows, c, *bulyan_counts(len(rows), c))


def impact_scores(
    models,
    agg_spec: AggregatorSpec,
    model_spec: ModelSpec,
    validation: Dataset,
) -> np.ndarray:
    """(m, 2) leave-one-out impacts on the validation set: row i holds how much
    model i raises the aggregate's error rate (column 0) and loss (column 1)."""
    arr = np.asarray(models, dtype=np.float64)
    if len(arr) < 2:
        raise ValueError("leave-one-out impacts need at least two models")
    val_objective = shard_objective(model_spec, validation)
    scores = np.array(
        [
            (error_rate(model_spec, w, validation), loss(val_objective, w))
            for w in _loo_aggregates(arr, agg_spec)  # checks the matrix
        ]
    )
    return scores[0] - scores[1:]


def apply_defense(models, agg_spec: AggregatorSpec, model_spec: ModelSpec, spec: DefenseSpec) -> DefenseOutcome:
    """Remove the c = ``agg_spec.assumed_compromised`` models with the largest
    error impact (ERR), loss impact (LFR), or either (Union: the union of the
    two removals).  Ties remove lower indices first."""
    if spec.kind == "none":
        return DefenseOutcome(as_model_matrix(models), ())
    impacts = impact_scores(models, agg_spec, model_spec, spec.validation)  # checks the matrix
    m, c = len(impacts), agg_spec.assumed_compromised
    if not 1 <= c < m:
        raise ValueError(f"cannot remove {c} of {m} models")
    columns = {"err": [0], "lfr": [1], "union": [0, 1]}[spec.kind]
    removed = np.unique(np.argsort(-impacts[:, columns], axis=0, kind="stable")[:c])
    arr = np.asarray(models, dtype=np.float64)
    return DefenseOutcome(np.delete(arr, removed, axis=0), tuple(int(i) for i in removed))
