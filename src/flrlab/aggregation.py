"""Master-side aggregation rules: mean, Krum, Bulyan, trimmed mean, median.

All rules are pure functions over an (m, d) matrix of local models, one row
per device, returning a single d-vector.  Selection ties always break to the
lowest device index so attack searches stay reproducible.  Every rule
decision is made here: :func:`aggregate` is the one dispatcher,
``DISTANCE_RULES`` names the rules that read a distance matrix,
:func:`window_trim` gives the window rules' per-side trim, and
:func:`krum_select` is the one Krum kernel.

**Checks.**  Each input matrix is checked once per public call, by the first
function that needs it; internal kernels take checked arrays.  Where a rule
computes values that a NaN or Inf would make non-finite, the check reads
those instead of scanning the matrix: the rows' squared norms
(:func:`row_sq_norms`, passed to :func:`pairwise_sq_dists` by a caller that
has them), the mean's result, and the ends of the window rules' sorted
columns (:func:`sort_checked`).

**One distance matrix.**  A federated iteration builds one, in the harness:
with :func:`blockwise_sq_dists` when a full-knowledge attack targets a rule
in ``DISTANCE_RULES`` (the benign block once, the compromised rows again
after crafting), else after the attack when the rule is in it.  The
direction's Krum, the attack, the defense and the final Krum or Bulyan (over
the survivors' block) read it.  Only the benign block, the attack's
candidates' matrix, reaches the metrics (through the crafted shift), and it
equals a build of those rows alone bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.core import as_model_matrix

RULES = ("mean", "krum", "trimmed_mean", "median", "bulyan")
# the rules that read a pairwise distance matrix; the others are window rules over sorted columns
DISTANCE_RULES = ("krum", "bulyan")

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


def row_sq_norms(models: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row: NaN or Inf for a row that holds NaN or Inf or is too large to square."""
    return np.einsum("ij,ij->i", models, models)


def pairwise_sq_dists(models, head: int | None = None, norms: np.ndarray | None = None) -> np.ndarray:
    """Symmetric matrix of squared Euclidean distances between model rows, or
    with ``head`` only its first ``head`` rows, as a (head, m) array.

    Up to m*m*d = 2**24 each row is summed elementwise and depends only on
    its own model and ``models``, so the ``head`` rows equal those of the
    whole matrix bit for bit.  Above it the matrix comes from the Gram product
    and the rows' squared norms, and the ``head`` rows from their own product
    with every row, which rounds differently.  ``norms`` are the rows' squared
    norms (:func:`row_sq_norms`) from a caller that has them; they replace the
    finiteness scan.
    """
    arr = as_model_matrix(models, finite=norms is None)
    if norms is not None and not np.all(np.isfinite(norms)):
        raise ValueError("model set contains NaN or Inf, or a model too large to square")
    m, d = arr.shape
    rows = m if head is None else head
    if m * m * d <= _DIRECT_PAIRWISE_LIMIT:
        out = np.empty((rows, m))
        for i in range(rows):
            out[i] = np.sum((arr - arr[i]) ** 2, axis=1)
    else:
        sq = row_sq_norms(arr) if norms is None else norms
        gram = arr @ arr.T if head is None else arr[:rows] @ arr.T
        out = np.maximum(sq[:rows, None] + sq[None, :] - 2.0 * gram, 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def blockwise_sq_dists(models: np.ndarray, split: int, norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (m, m) distance matrix of ``models``, built in two row groups: [:split] and [split:].

    The block ``[split:, split:]`` is ``pairwise_sq_dists(models[split:])``
    bit for bit.  Rows and columns ``[:split]`` are the first ``split`` rows of
    the matrix of all m models (one product on the Gram path), so on the
    direct path the whole equals ``pairwise_sq_dists(models)`` bit for bit,
    and on the Gram path it differs from it by rounding.  Given ``out``, the
    matrix built before rows ``[:split]`` of ``models`` changed, only those
    rows and columns are rebuilt, in place.  ``norms`` are the rows' squared
    norms (:func:`row_sq_norms`); ``split=0`` is one whole build.
    """
    if out is None:
        out = np.empty((len(models), len(models)))
        out[split:, split:] = pairwise_sq_dists(models[split:], norms=norms[split:])
    if split:
        head = pairwise_sq_dists(models, split, norms)
        out[:split] = head
        out[:, :split] = head.T
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
    ``rows``; ties go to the earliest position in ``rows``.  :func:`krum` runs
    it over every row, :func:`aggregate` over a defense's survivors, and
    :func:`bulyan_within` once per round."""
    neighbors = max(0, len(rows) - assumed_compromised - 2)
    scores = neighbor_score_sums(sq_dists[np.ix_(rows, rows)], neighbors)
    return int(rows[int(np.argmin(scores))])


def krum(models, assumed_compromised: int, sq_dists: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """Select the local model with the smallest Krum score (lowest index on ties).

    ``sq_dists`` is the models' distance matrix, when the caller has built it.
    """
    sq = pairwise_sq_dists(models) if sq_dists is None else sq_dists
    AggregatorSpec("krum", assumed_compromised=assumed_compromised).validate(len(sq))
    chosen = krum_select(sq, range(len(sq)), assumed_compromised)
    return chosen, np.array(models[chosen], dtype=np.float64)


def window_trim(spec: AggregatorSpec, num_models: int) -> int:
    """Values a window rule drops at each end of a sorted column of ``num_models``:
    0 for the mean, beta for trimmed mean, and (m-1)//2 for the median, which
    keeps the middle value (odd m) or two (even m)."""
    if spec.rule == "mean":
        return 0
    return spec.trim_count if spec.rule == "trimmed_mean" else (num_models - 1) // 2


def sort_checked(arr: np.ndarray) -> np.ndarray:
    """Sort each column of ``arr`` in place and return it; ValueError if a value is NaN or Inf.

    NaN and +Inf sort to a column's end and -Inf to its start, so the first
    and last rows stand in for a scan of every row.
    """
    arr.sort(axis=0)
    if not (np.all(np.isfinite(arr[0])) and np.all(np.isfinite(arr[-1]))):
        raise ValueError("model set contains NaN or Inf")
    return arr


def _window_mean(ordered: np.ndarray, trim_count: int) -> np.ndarray:
    """Per column of the column-sorted ``ordered``: drop ``trim_count`` values at each end, average the rest."""
    return ordered[trim_count : ordered.shape[0] - trim_count].mean(axis=0)


def mean(models) -> np.ndarray:
    """Coordinate-wise mean."""
    return aggregate(AggregatorSpec("mean"), models)


def trimmed_mean(models, trim_count: int) -> np.ndarray:
    """Per coordinate: drop the trim_count largest and smallest values, average the rest."""
    return aggregate(AggregatorSpec("trimmed_mean", trim_count=trim_count), models)


def median(models) -> np.ndarray:
    """Coordinate-wise median: the mean of the middle value (odd m) or two (even m)."""
    return aggregate(AggregatorSpec("median"), models)


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

    Each of the theta Krum rounds scores within the rows that remain
    (:func:`krum_select`).  Distance-to-median ties keep selection order
    (stable sort), and the inner Krum's neighbour count clips at zero once few
    models remain.
    """
    c, theta, gamma = assumed_compromised, selection_count, average_count
    remaining, selected = list(rows), []
    for _ in range(theta):
        selected.append(krum_select(sq_dists, remaining, c))
        remaining.remove(selected[-1])

    chosen = models[selected]
    med = _window_mean(np.sort(chosen, axis=0), window_trim(AggregatorSpec("median"), theta))
    dist_to_med = np.abs(chosen - med)
    order = np.argsort(dist_to_med, axis=0, kind="stable")[:gamma]
    closest = np.take_along_axis(chosen, order, axis=0)
    return closest.mean(axis=0)


def aggregate(spec: AggregatorSpec, models, rows=None, sq_dists: np.ndarray | None = None) -> np.ndarray:
    """Run the configured rule on the rows ``rows`` of ``models`` (every row when None).

    Krum and Bulyan select within those rows of ``sq_dists``, the distance
    matrix of all of ``models``, when the caller has built it (and so checked
    the models), and build it here otherwise.  The mean checks its result and
    the other window rules their sorted columns' ends (module docstring).
    """
    if spec.rule in DISTANCE_RULES:
        arr, c = np.asarray(models, dtype=np.float64), spec.assumed_compromised
        sq = pairwise_sq_dists(arr) if sq_dists is None else sq_dists
        keep = range(len(arr)) if rows is None else rows
        spec.validate(len(keep))
        if spec.rule == "krum":
            return arr[krum_select(sq, keep, c)].copy()
        return bulyan_within(arr, sq, keep, c, *bulyan_counts(len(keep), c))
    arr = as_model_matrix(models, finite=False)
    picked = arr if rows is None else arr[rows]  # a row index gathers a new array
    spec.validate(len(picked))
    if spec.rule == "mean":
        out = picked.mean(axis=0)
        if not np.all(np.isfinite(out)):
            raise ValueError("model set contains NaN or Inf, or its mean overflows")
        return out
    ordered = sort_checked(picked.copy() if rows is None else picked)
    return _window_mean(ordered, window_trim(spec, len(ordered)))
