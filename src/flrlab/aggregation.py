"""Master-side aggregation rules: mean, Krum, Bulyan, trimmed mean, median.

All rules are pure functions over an (m, d) matrix of local models, one row
per device, returning a single d-vector.  Selection ties always break to the
lowest device index so attack searches stay reproducible.  Each input matrix
is scanned (shape and finiteness) once per public call: by the first function
that needs it, here :func:`pairwise_sq_dists` for the Krum family, and by no
flrlab function that function calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.core import as_model_matrix

RULES = ("mean", "krum", "trimmed_mean", "median", "bulyan")

# Above this m*m*d workload the pairwise kernel switches from the exact
# elementwise path to a BLAS Gram-matrix formulation.
_DIRECT_PAIRWISE_LIMIT = 1 << 24


@dataclass(frozen=True)
class AggregatorSpec:
    """Which rule to run and its parameters.

    ``assumed_compromised`` is the defender's upper bound c, which Krum and
    Bulyan use and the rejection defenses remove; ``trim_count`` is the
    per-side trim beta of trimmed mean.  Bulyan's theta and gamma are not
    parameters: :func:`bulyan_counts` derives them from each model set.
    """

    rule: str
    assumed_compromised: int = 0
    trim_count: int = 0

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown aggregation rule {self.rule!r}")

    def validate(self, num_models: int) -> None:
        """Check rule parameters against the size of the model set.

        It is the only check of c and beta.  For Bulyan it checks m >= 4c+1,
        which is gamma >= 1 for the counts of :func:`bulyan_counts`.
        """
        m, c = num_models, self.assumed_compromised
        if m < 1:
            raise ValueError("empty model set")
        if c < 0:
            raise ValueError(f"the assumed compromised count must be non-negative (c={c})")
        if self.rule == "krum" and m < c + 3:
            raise ValueError(f"krum needs m >= c+3 (m={m}, c={c})")
        if self.rule == "trimmed_mean" and not 0 <= self.trim_count < m / 2:
            raise ValueError(f"trim count must satisfy 0 <= beta < m/2 (m={m}, beta={self.trim_count})")
        if self.rule == "bulyan" and m < 4 * c + 1:
            raise ValueError(f"bulyan needs m >= 4c+1 (m={m}, c={c})")


def bulyan_counts(num_models: int, assumed_compromised: int) -> tuple[int, int]:
    """Bulyan's selection count theta = m - 2c and average count gamma = theta - 2c for m models."""
    theta = num_models - 2 * assumed_compromised
    return theta, theta - 2 * assumed_compromised


def pairwise_sq_dists(models: np.ndarray) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances between model rows."""
    arr = as_model_matrix(models)
    m, d = arr.shape
    if m * m * d <= _DIRECT_PAIRWISE_LIMIT:
        out = np.empty((m, m))
        for i in range(m):
            out[i] = np.sum((arr - arr[i]) ** 2, axis=1)
    else:
        sq = np.einsum("ij,ij->i", arr, arr)
        out = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (arr @ arr.T), 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def neighbor_score_sums(sq_dists: np.ndarray, neighbor_count: int) -> np.ndarray:
    """Per row: sum of the ``neighbor_count`` smallest off-diagonal entries.

    Row-sorting puts the zero self-distance first; skipping one leading
    entry excludes the model itself (duplicates tie at zero, so which copy
    is skipped does not change the sum).
    """
    ordered = np.sort(sq_dists, axis=1)
    return ordered[:, 1 : neighbor_count + 1].sum(axis=1)


def krum_select(sq_dists: np.ndarray, rows, assumed_compromised: int) -> int:
    """The row among ``rows`` with the smallest Krum score computed within
    ``rows``; ties go to the earliest position in ``rows``.

    It is one round of :func:`bulyan_within`, its only caller in the
    package.  It stays a function of its own because each round scores a
    different row set, so the rounds share no sort, and its tie order is
    tested on its own.
    """
    neighbors = max(0, len(rows) - assumed_compromised - 2)
    scores = neighbor_score_sums(sq_dists[np.ix_(rows, rows)], neighbors)
    return int(rows[int(np.argmin(scores))])


def mean(models) -> np.ndarray:
    return as_model_matrix(models).mean(axis=0)


def krum_scores(models, assumed_compromised: int) -> np.ndarray:
    """Sum of squared distances from each model to its m-c-2 nearest peers."""
    sq = pairwise_sq_dists(models)
    AggregatorSpec("krum", assumed_compromised=assumed_compromised).validate(len(sq))
    return neighbor_score_sums(sq, len(sq) - assumed_compromised - 2)


def krum(models, assumed_compromised: int) -> tuple[int, np.ndarray]:
    """Select the local model with the smallest Krum score (lowest index on ties)."""
    chosen = int(np.argmin(krum_scores(models, assumed_compromised)))
    return chosen, np.array(models[chosen], dtype=np.float64)


def _window_mean(arr: np.ndarray, trim_count: int) -> np.ndarray:
    """Per column: sort, drop ``trim_count`` values at each end, average the rest."""
    return np.sort(arr, axis=0)[trim_count : arr.shape[0] - trim_count].mean(axis=0)


def trimmed_mean(models, trim_count: int) -> np.ndarray:
    """Per coordinate: drop the trim_count largest and smallest values, average the rest."""
    arr = as_model_matrix(models)
    AggregatorSpec("trimmed_mean", trim_count=trim_count).validate(arr.shape[0])
    return _window_mean(arr, trim_count)


def median(models) -> np.ndarray:
    """Coordinate-wise median: the trimmed mean that keeps the middle value (odd m) or two (even m)."""
    arr = as_model_matrix(models)
    return _window_mean(arr, (arr.shape[0] - 1) // 2)


def bulyan(models, assumed_compromised: int, selection_count: int, average_count: int) -> np.ndarray:
    """Krum-select ``selection_count`` models, then per coordinate average the
    ``average_count`` values closest to their median.  :func:`aggregate`
    passes the counts of :func:`bulyan_counts`.

    Checks the counts, builds the distance matrix and runs :func:`bulyan_within`
    on every row.
    """
    sq = pairwise_sq_dists(models)
    m, c, theta, gamma = sq.shape[0], assumed_compromised, selection_count, average_count
    AggregatorSpec("bulyan", assumed_compromised=c).validate(m)
    if not 1 <= gamma <= theta - 2 * c <= m - 4 * c:
        raise ValueError(f"bulyan needs 1 <= gamma <= theta-2c <= m-4c (m={m}, c={c}, theta={theta}, gamma={gamma})")
    return bulyan_within(np.asarray(models, dtype=np.float64), sq, range(m), c, theta, gamma)


def bulyan_within(
    models: np.ndarray, sq_dists: np.ndarray, rows, assumed_compromised: int, selection_count: int, average_count: int
) -> np.ndarray:
    """Bulyan on ``models[rows]``, with distances read from ``sq_dists``, the
    matrix of all of ``models``; the counts are not checked here.

    As in :func:`krum_select`, each of the theta Krum rounds scores within the
    rows that remain.  Distance-to-median ties keep selection order (stable
    sort), and the inner Krum's neighbour count clips at zero once few models
    remain.
    """
    c, theta, gamma = assumed_compromised, selection_count, average_count
    remaining, selected = list(rows), []
    for _ in range(theta):
        selected.append(krum_select(sq_dists, remaining, c))
        remaining.remove(selected[-1])

    chosen = models[selected]
    med = _window_mean(chosen, (theta - 1) // 2)
    dist_to_med = np.abs(chosen - med)
    order = np.argsort(dist_to_med, axis=0, kind="stable")[:gamma]
    closest = np.take_along_axis(chosen, order, axis=0)
    return closest.mean(axis=0)


def aggregate(spec: AggregatorSpec, models) -> np.ndarray:
    """Run the configured rule; each rule validates the models and its parameters."""
    if spec.rule == "mean":
        return mean(models)
    if spec.rule == "krum":
        return krum(models, spec.assumed_compromised)[1]
    if spec.rule == "trimmed_mean":
        return trimmed_mean(models, spec.trim_count)
    if spec.rule == "median":
        return median(models)
    return bulyan(models, spec.assumed_compromised, *bulyan_counts(len(models), spec.assumed_compromised))
