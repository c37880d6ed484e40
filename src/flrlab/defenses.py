"""Rejection defenses: remove suspect local models before aggregation.

ERR drops the c local models whose inclusion raises the validation error
rate the most, LFR the ones that raise the validation cross-entropy the
most, and Union drops anything either would.  Impacts are leave-one-out:
aggregate with and without each model and compare on a small validation
set held by the master.  The defenses never see which devices are actually
compromised.

The m leave-one-out aggregates do not rerun the rule m times except under
Bulyan.  Mean, trimmed mean and median sort each column once and subtract
one clipped value per model from the sum of one window; Krum selects within
rows of one pairwise distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.aggregation import AggregatorSpec, aggregate, krum_select, pairwise_sq_dists
from flrlab.core import as_model_matrix
from flrlab.data import Dataset
from flrlab.models import ModelSpec, error_rate, loss, shard_objective

DEFENSE_KINDS = ("none", "err", "lfr", "union")


@dataclass(frozen=True)
class DefenseSpec:
    """Which filter to run, how many models it removes, and the validation data."""

    kind: str
    removal_count: int
    validation: Dataset | None = None

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind != "none":
            if self.removal_count < 1:
                raise ValueError("defense removal count must be positive")
            if self.validation is None or len(self.validation) == 0:
                raise ValueError(f"{self.kind} defense needs a non-empty validation set")


@dataclass(frozen=True)
class ImpactRecord:
    """Leave-one-out impact of a single device's local model."""

    device: int
    error_impact: float
    loss_impact: float


@dataclass(frozen=True)
class DefenseOutcome:
    survivors: np.ndarray
    removed: tuple[int, ...]
    records: tuple[ImpactRecord, ...]
    removed_by_error: tuple[int, ...] = ()
    removed_by_loss: tuple[int, ...] = ()


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

    Krum builds one pairwise distance matrix and selects within each row
    subset, which is identical to rerunning the rule on the subset.  The
    generic path, rerunning the rule on every subset, serves Bulyan only.
    """
    m = models.shape[0]
    if agg_spec.rule in ("mean", "trimmed_mean", "median"):
        yield aggregate(agg_spec, models)
        agg_spec.validate(m - 1)
        beta = {"mean": 0, "trimmed_mean": agg_spec.trim_count}.get(agg_spec.rule, (m - 2) // 2)
        ordered = np.sort(models, axis=0)
        window = ordered[beta : m - beta].sum(axis=0)
        low, high = ordered[beta], ordered[m - 1 - beta]
        for row in models:
            yield (window - np.clip(row, low, high)) / (m - 1 - 2 * beta)
        return
    subsets = [np.arange(m)] + [np.flatnonzero(np.arange(m) != i) for i in range(m)]
    if agg_spec.rule == "krum":
        agg_spec.validate(m - 1)
        sq = pairwise_sq_dists(models)
        for rows in subsets:
            yield models[krum_select(sq, rows, agg_spec.assumed_compromised)]
    else:
        for rows in subsets:
            yield aggregate(agg_spec, models[rows])


def impact_scores(
    models,
    agg_spec: AggregatorSpec,
    model_spec: ModelSpec,
    validation: Dataset,
) -> list[ImpactRecord]:
    """Error-rate and loss impact of each local model on the validation set."""
    arr = np.asarray(models, dtype=np.float64)
    if len(arr) < 2:
        raise ValueError("leave-one-out impacts need at least two models")
    val_objective = shard_objective(model_spec, validation)
    scores = [
        (error_rate(model_spec, w, validation), loss(val_objective, w))
        for w in _loo_aggregates(arr, agg_spec)  # checks the matrix
    ]
    err_all, loss_all = scores[0]
    return [ImpactRecord(i, err_all - err_w, loss_all - loss_w) for i, (err_w, loss_w) in enumerate(scores[1:])]


def _largest_impacts(records: list[ImpactRecord], key, count: int) -> tuple[int, ...]:
    """Devices with the ``count`` largest impacts; ties drop lower indices first."""
    impacts = np.asarray([key(r) for r in records])
    order = np.argsort(-impacts, kind="stable")
    return tuple(sorted(int(records[i].device) for i in order[:count]))


def apply_defense(models, agg_spec: AggregatorSpec, model_spec: ModelSpec, spec: DefenseSpec) -> DefenseOutcome:
    """Remove the ``removal_count`` models with the largest error impact (ERR),
    loss impact (LFR), or either (Union: the union of the two removals)."""
    if spec.kind == "none":
        return DefenseOutcome(survivors=as_model_matrix(models), removed=(), records=())
    records = impact_scores(models, agg_spec, model_spec, spec.validation)  # checks the matrix
    arr = np.asarray(models, dtype=np.float64)
    if spec.removal_count >= arr.shape[0]:
        raise ValueError(f"cannot remove {spec.removal_count} of {arr.shape[0]} models")
    by_error = by_loss = ()
    if spec.kind != "lfr":
        by_error = _largest_impacts(records, lambda r: r.error_impact, spec.removal_count)
    if spec.kind != "err":
        by_loss = _largest_impacts(records, lambda r: r.loss_impact, spec.removal_count)
    removed = tuple(sorted(set(by_error) | set(by_loss)))
    mask = np.ones(arr.shape[0], dtype=bool)
    mask[list(removed)] = False
    return DefenseOutcome(arr[mask], removed, tuple(records), by_error, by_loss)
