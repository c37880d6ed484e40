"""Rejection defenses: remove suspect local models before aggregation.

ERR drops the c local models whose inclusion raises the validation error
rate the most, LFR the ones that raise the validation cross-entropy the
most, and Union drops anything either would.  c is the aggregator spec's
``assumed_compromised``, the same bound the rule itself assumes.  Impacts
are leave-one-out: aggregate with and without each model and compare on a
small validation set held by the master.  The defenses never see which
devices are actually compromised.

The m leave-one-out aggregates never rerun the rule m times: they come from
one column sort or one distance matrix (:func:`_loo_aggregates`; in a
federated iteration the harness's one matrix, see :mod:`flrlab.aggregation`),
and are scored in one stacked forward pass over the validation set.  The
outcome keeps the survivors as a row index into the model matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# aggregate, error_rate and loss go unused here: perfbench/tracer.py patches them as defenses call sites
from flrlab.aggregation import (DISTANCE_RULES, AggregatorSpec, aggregate, bulyan_counts, bulyan_within,
                                pairwise_sq_dists, sort_checked, window_trim)
from flrlab.core import as_model_matrix
from flrlab.data import Dataset
from flrlab.models import ModelSpec, error_and_loss, error_rate, loss, shard_objective

# the impact columns each defense ranks the models by: 0 is the error rate's, 1 the loss's
_IMPACT_COLUMNS = {"err": [0], "lfr": [1], "union": [0, 1]}
DEFENSE_KINDS = ("none", *_IMPACT_COLUMNS)


@dataclass(frozen=True)
class DefenseOutcome:
    """The model matrix a defense filtered and the rows it removed, ascending."""

    models: np.ndarray
    removed: tuple[int, ...]

    @property
    def kept(self) -> np.ndarray:
        """The surviving rows of ``models``, ascending."""
        return np.delete(np.arange(len(self.models)), self.removed)

    @property
    def survivors(self) -> np.ndarray:
        """The surviving models, gathered into a new array."""
        return self.models[self.kept]


def _loo_aggregates(
    models: np.ndarray, agg_spec: AggregatorSpec, sq_dists: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The aggregate of all m models, then of the models without each one in
    turn, as ``(aggregates, index)``: a (u, d) array of the distinct aggregates
    and an (m+1,) index into it, ``index[0]`` for all models and ``index[i+1]``
    for the set without model i.  Only Krum repeats aggregates, since its m+1
    picks fall on a few models; every other rule returns m+1 rows in order.

    Mean, trimmed mean and median average a window of each sorted column,
    trimming beta = :func:`~flrlab.aggregation.window_trim` values per side
    of the m-1 kept ones.  Per column, with the m values sorted as
    s_0 <= ... <= s_{m-1}, removing value v leaves one of three windows:

    - ``[beta+1, m-beta)`` where v <= s_{beta-1}: ``[beta, m-beta)`` without s_beta;
    - ``[beta, m-1-beta)`` where v >= s_{m-1-beta}: ``[beta, m-beta)`` without s_{m-1-beta};
    - otherwise ``[beta, m-beta)`` without v.

    So each leave-one-out mean is the sum of ``[beta, m-beta)`` minus v clipped
    to [s_beta, s_{m-1-beta}], over m-1-2*beta.  That sum holds only values
    inside the window, so values far outside it add no rounding error.  The
    full trimmed mean and median come from the same sort: the sum of the full
    set's window over its count, which is how ``np.mean`` computes them.

    Krum and Bulyan read one pairwise distance matrix: ``sq_dists``, when the
    caller has built it, else a build of ``models``.  Krum sorts each row
    once: with o_j the m-1 distances from j to the others in ascending order
    and P_j their prefix sums, j's score is P_j[m-c-2], and without model i
    it is P_j[k+1] - d_ji if d_ji < o_j[k] and P_j[k] otherwise
    (k = m-c-3; a tie at o_j[k] leaves the same k values).  Comparing values,
    not ranks, leaves no ambiguity where a duplicate's 0 ties self's.  The
    argmin over j != i takes the lowest index on ties.  The sums differ from
    :func:`~flrlab.aggregation.neighbor_score_sums` by rounding only, so only
    scores that agree to rounding can pick differently; the tests check the
    picks against rerunning Krum on each subset.  Bulyan selects within each
    row subset with the subset's counts (``bulyan_within``), which is
    identical to rerunning it on the subset.
    """
    m, c = models.shape[0], agg_spec.assumed_compromised
    agg_spec.validate(m - 1)
    if agg_spec.rule not in DISTANCE_RULES:
        # per-side trims of all m models and of each m-1; only the median's differ
        t, beta = window_trim(agg_spec, m), window_trim(agg_spec, m - 1)
        out = np.empty((m + 1, models.shape[1]))
        ordered = out[1:]  # holds the column sort, then the leave-one-out aggregates: no second (m, d) array
        ordered[:] = models
        sort_checked(ordered)
        window = ordered[beta : m - beta].sum(axis=0)
        low, high = ordered[beta].copy(), ordered[m - 1 - beta].copy()
        if agg_spec.rule == "mean":
            out[0] = models.mean(axis=0)  # a sum over sorted columns would round differently
        else:
            out[0] = (window if t == beta else ordered[t : m - t].sum(axis=0)) / (m - 2 * t)
        np.clip(models, low, high, out=ordered)
        np.subtract(window, ordered, out=ordered)
        ordered /= m - 1 - 2 * beta
        return out, np.arange(m + 1)
    sq = pairwise_sq_dists(models) if sq_dists is None else sq_dists
    if agg_spec.rule == "krum":
        k = m - c - 3
        others = np.sort(sq, axis=1)[:, 1:]
        prefix = np.zeros((m, m))
        np.cumsum(others, axis=1, out=prefix[:, 1:])
        # without[i, j]: j's score without model i
        without = np.where(sq.T < others[:, k], prefix[:, k + 1] - sq.T, prefix[:, k])
        np.fill_diagonal(without, np.inf)
        picks = np.concatenate(([np.argmin(prefix[:, m - c - 2])], np.argmin(without, axis=1)))
        distinct, index = np.unique(picks, return_inverse=True)
        return models[distinct], index
    subsets = [np.arange(m)] + [np.flatnonzero(np.arange(m) != i) for i in range(m)]
    aggregates = [bulyan_within(models, sq, rows, c, *bulyan_counts(len(rows), c)) for rows in subsets]
    return np.array(aggregates), np.arange(m + 1)


def impact_scores(
    models,
    agg_spec: AggregatorSpec,
    model_spec: ModelSpec,
    validation: Dataset,
    sq_dists: np.ndarray | None = None,
) -> np.ndarray:
    """(m, 2) leave-one-out impacts on the validation set: row i holds how much
    model i raises the aggregate's error rate (column 0) and loss (column 1).
    Krum and Bulyan read ``sq_dists``, the models' distance matrix, when given."""
    arr = as_model_matrix(models, finite=False)
    if len(arr) < 2:
        raise ValueError("leave-one-out impacts need at least two models")
    aggregates, index = _loo_aggregates(arr, agg_spec, sq_dists)  # checks the values or builds the matrix
    scores = error_and_loss(shard_objective(model_spec, validation), aggregates)[index]  # checks the aggregates
    return scores[0] - scores[1:]


def apply_defense(
    models, agg_spec: AggregatorSpec, model_spec: ModelSpec, kind: str, validation: Dataset, sq_dists=None
) -> DefenseOutcome:
    """Remove the c = ``agg_spec.assumed_compromised`` models with the largest
    impact on the master's ``validation`` set: on its error rate (kind "err"),
    its loss ("lfr"), or either ("union": the union of the two removals).  Ties
    remove lower indices first.  An unknown kind and an empty validation set
    raise ValueError.  Krum and Bulyan read ``sq_dists``, the models' distance
    matrix, when given."""
    if kind not in _IMPACT_COLUMNS:
        raise ValueError(f"unknown defense kind {kind!r}")
    arr = np.asarray(models, dtype=np.float64)
    impacts = impact_scores(arr, agg_spec, model_spec, validation, sq_dists)  # checks the matrix and the validation set
    m, c = len(impacts), agg_spec.assumed_compromised
    if not 1 <= c < m:
        raise ValueError(f"cannot remove {c} of {m} models")
    removed = np.unique(np.argsort(-impacts[:, _IMPACT_COLUMNS[kind]], axis=0, kind="stable")[:c])
    return DefenseOutcome(arr, tuple(int(i) for i in removed))
