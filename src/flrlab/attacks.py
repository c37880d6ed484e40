"""Local model poisoning attack crafters.

The crafted-model attacks push the aggregated global model against the
direction s it would move without an attack, which :func:`estimate_direction`
derives from the aggregate :func:`expected_aggregate` expects.  Against Krum
the crafted model sits at ``w_received - shift * s`` with the largest shift
that Krum still selects (binary search under a provable upper bound).
Against trimmed mean and median the compromised coordinates are sampled just
beyond the benign extremes (full knowledge) or 3-4 standard deviations from
the compromised mean (partial knowledge).  Gaussian and label flipping are
baselines.  In a full-knowledge federated iteration the Krum attack reads the
harness's one distance matrix (see :mod:`flrlab.aggregation`); called without
one, it builds the candidates' matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.aggregation import (DISTANCE_RULES, RULES, AggregatorSpec, aggregate, krum, neighbor_score_sums,
                                pairwise_sq_dists)
from flrlab.core import as_model_matrix, as_vector, signed_direction
from flrlab.data import Dataset

KNOWLEDGE_MODES = ("full", "partial")
OBJECTIVES = ("directed_deviation", "deviation")
# the ball the c-1 supporting Krum models are sampled in
SUPPORT_RADIUS = 0.01
# how far the trimmed-mean/median sampling interval stretches past the benign extremes
INTERVAL_FACTOR = 2.0
# where the Krum binary search gives up
SHIFT_FLOOR = 1e-5


@dataclass(frozen=True)
class KnowledgeScope:
    """What the attacker can see this iteration.

    ``models`` holds the before-attack local models: all m of them in full
    knowledge, only the compromised ones in partial knowledge.  Partial mode
    never receives benign models, which enforces the knowledge boundary by
    construction.  ``w_received`` is the global model the master broadcast.
    """

    mode: str  # one of KNOWLEDGE_MODES
    models: np.ndarray
    w_received: np.ndarray

    def __post_init__(self):
        if self.mode not in KNOWLEDGE_MODES:
            raise ValueError(f"unknown knowledge mode {self.mode!r}")
        arr = as_model_matrix(self.models)
        w = as_vector(self.w_received, dim=arr.shape[1])
        object.__setattr__(self, "models", arr)
        object.__setattr__(self, "w_received", w)


@dataclass(frozen=True)
class AttackSpec:
    """The rule a crafted attack targets and the objective it pursues."""

    target_rule: str
    objective: str = "directed_deviation"

    def __post_init__(self):
        if self.target_rule not in RULES:
            raise ValueError(f"unknown attack target {self.target_rule!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown attack objective {self.objective!r}")


@dataclass(frozen=True)
class KrumAttackResult:
    """Outcome of a Krum-targeted crafting attempt.

    ``models`` is None when no feasible shift was found (no-solution);
    ``crafted_copies`` is how many replicas of the crafted model the
    successful evaluation set contained (partial mode grows it).
    """

    models: np.ndarray | None
    shift: float | None
    crafted_copies: int

    @property
    def success(self) -> bool:
        return self.models is not None


def expected_aggregate(models, target_rule: str, c: int, sq_dists: np.ndarray | None = None) -> np.ndarray:
    """What the attacker expects ``target_rule`` to make of ``models``: Krum's pick for Krum and
    Bulyan (from ``sq_dists``, the models' distance matrix, when given), else the rule itself
    trimming c per side (as many as the attacker controls)."""
    if target_rule in DISTANCE_RULES:
        return krum(models, c, sq_dists)[1]
    return aggregate(AggregatorSpec(target_rule, trim_count=c), models)


def estimate_direction(
    scope: KnowledgeScope, spec: AttackSpec, compromised_count: int, sq_dists: np.ndarray | None = None
) -> np.ndarray:
    """Per-coordinate update direction s the attack works against, +1 on ties.

    Full knowledge takes the sign of :func:`expected_aggregate` over the models
    in scope (with ``sq_dists``, their distance matrix, when given) minus the
    received global model; partial knowledge uses the compromised devices'
    mean before-attack model in place of that aggregate.
    """
    if scope.mode == "full":
        before = expected_aggregate(scope.models, spec.target_rule, compromised_count, sq_dists)
    else:
        before = scope.models.mean(axis=0)
    return signed_direction(before, scope.w_received)


def krum_shift_upper_bound(sq_dists, received_sq, crafted_count: int, dim: int) -> float:
    """Largest shift for which the crafted model could still win Krum.

    The candidates are the models the attacker treats as benign (the true
    benign ones in full knowledge, the compromised before-attack ones in
    partial knowledge); the evaluation set is those plus ``crafted_count``
    identical crafted replicas.  ``sq_dists`` is the candidates' (n, n)
    pairwise squared-distance matrix, ``received_sq`` their squared
    distances |w - c_j|^2 to the received model and ``dim`` the models'
    dimension: :func:`attack_krum` shares the first two with its search.
    """
    n = len(sq_dists)
    if n < 3:
        raise ValueError("need at least three candidate models for the neighbour sums")
    denom = n - crafted_count - 1
    if denom <= 0:
        raise ValueError(f"bound undefined: need crafted_count <= candidates-2 (n={n}, crafted={crafted_count})")
    neighbor_sums = neighbor_score_sums(sq_dists, n - 2)
    term1 = np.sqrt(neighbor_sums.min() / (denom * dim))
    term2 = np.sqrt(received_sq).max() / np.sqrt(dim)
    return float(term1 + term2)


def sample_in_ball(center: np.ndarray, radius: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Uniform sample from the Euclidean ball around ``center``, drawn into ``out`` and returned.

    A normal draw fills ``out``, then one uniform draw sets the radius; the
    direction is scaled and shifted in place.
    """
    rng.standard_normal(out=out)
    r = radius * rng.random() ** (1.0 / out.shape[0])
    out *= r / np.linalg.norm(out)
    out += center
    return out


def _binary_search_shift(
    sq_dists: np.ndarray,
    received_sq: np.ndarray,
    along: np.ndarray,
    direction_sq: float,
    copies: int,
    shift: float,
) -> float | None:
    """Halve ``shift`` from the upper bound until Krum picks the crafted model.

    w - s*dir lies at squared distance a_j - 2s*b_j + s^2*|dir|^2 (clipped at
    0) from candidate j, with a_j = |w - c_j|^2 (``received_sq``) and
    b_j = dir.(w - c_j) (``along``).  A step writes these into the crafted
    rows of one evaluation matrix (copies 0 apart, candidates ``sq_dists``)
    and takes Krum's pick from its neighbour sums, so it does no work on
    model vectors.  The distances differ from the stacked evaluation set's
    by rounding only; the tests check the shifts against the Krum oracle.
    """
    n = len(sq_dists)
    evaluation = np.zeros((copies + n, copies + n))
    evaluation[copies:, copies:] = sq_dists
    while shift >= SHIFT_FLOOR:
        to_crafted = np.maximum(received_sq - 2.0 * shift * along + shift * shift * direction_sq, 0.0)
        evaluation[:copies, copies:] = to_crafted
        evaluation[copies:, :copies] = to_crafted[:, None]
        if np.argmin(neighbor_score_sums(evaluation, n - 2)) < copies:
            return shift
        shift *= 0.5
    return None


def _check_scope(scope: KnowledgeScope, compromised_count: int) -> None:
    """Full knowledge holds benign models beyond the compromised ones; partial holds exactly those."""
    if compromised_count < 1:
        raise ValueError("need at least one compromised device")
    if scope.mode == "full" and scope.models.shape[0] <= compromised_count:
        raise ValueError("full knowledge requires benign models in scope")
    if scope.mode == "partial" and scope.models.shape[0] != compromised_count:
        raise ValueError("partial knowledge sees exactly the compromised models")


def attack_krum(
    scope: KnowledgeScope,
    spec: AttackSpec,
    compromised_count: int,
    rng: np.random.Generator,
    sq_dists: np.ndarray | None = None,
) -> KrumAttackResult:
    """Craft ``compromised_count`` local models so Krum selects the shifted one.

    Full knowledge searches the shift against the benign models with the
    crafted model replicated c times (the supporting replicas).  Partial
    knowledge searches against the compromised devices' before-attack models
    and, on failure, adds one more crafted replica to the evaluation set and
    restarts, up to c replicas.  A copy count whose shift bound is undefined
    (candidates - copies - 1 <= 0) is skipped; with none left there is no
    solution.  The emitted set is the crafted model plus c-1 samples inside
    the support-radius ball around it.  ``sq_dists`` is the distance matrix of
    ``scope.models``, when the caller has built it; the candidates' matrix is
    its benign block (see :mod:`flrlab.aggregation`).
    """
    if spec.target_rule not in DISTANCE_RULES:
        raise ValueError("attack_krum targets the krum or bulyan rule")
    c = compromised_count
    _check_scope(scope, c)
    dim = scope.w_received.shape[0]

    if scope.mode == "full":
        candidates, copy_plans, given = scope.models[c:], [c], None if sq_dists is None else sq_dists[c:, c:]
    else:
        candidates, copy_plans, given = scope.models, range(1, c + 1), sq_dists
    copy_plans = [a for a in copy_plans if len(candidates) - a - 1 > 0]
    if not copy_plans:
        return KrumAttackResult(None, None, 0)

    direction = estimate_direction(scope, spec, c, sq_dists) if spec.objective == "directed_deviation" else np.ones(dim)
    sq = pairwise_sq_dists(candidates) if given is None else given
    offsets = scope.w_received - candidates
    along, direction_sq = offsets @ direction, direction @ direction
    offsets **= 2  # in place: no second (n, d) temporary
    received_sq = np.sum(offsets, axis=1)

    for copies in copy_plans:
        shift = krum_shift_upper_bound(sq, received_sq, copies, dim)
        if shift >= SHIFT_FLOOR:
            # the search's first crafted model; every later one lies between it and w, so this checks them all
            as_vector(scope.w_received - shift * direction)
        shift = _binary_search_shift(sq, received_sq, along, direction_sq, copies, shift)
        if shift is not None:
            out = np.empty((c, dim))
            crafted = np.subtract(scope.w_received, shift * direction, out=out[0])
            for i in range(1, c):
                sample_in_ball(crafted, SUPPORT_RADIUS, rng, out[i])
            return KrumAttackResult(out, shift, copies)
    return KrumAttackResult(None, None, 0)


def attack_trimmed_mean(
    scope: KnowledgeScope,
    spec: AttackSpec,
    compromised_count: int,
    direction,
    rng: np.random.Generator,
) -> np.ndarray:
    """Craft per-coordinate extreme values against trimmed mean, median, or mean.

    Full knowledge samples each compromised coordinate uniformly just beyond
    the benign maximum (direction -1) or minimum (direction +1).  Partial
    knowledge samples from [mu+3s, mu+4s] or [mu-4s, mu-3s] of the
    compromised devices' own statistics.  Under the undirected deviation
    objective the side is chosen per coordinate by whichever interval
    midpoint displaces the simulated aggregate further.
    """
    if spec.target_rule in DISTANCE_RULES:
        raise ValueError("attack_trimmed_mean targets a coordinate-wise rule")
    c = compromised_count
    _check_scope(scope, c)
    dim = scope.w_received.shape[0]

    if scope.mode == "partial":
        if spec.objective != "directed_deviation":
            raise ValueError("the deviation objective is defined for full knowledge only")
        s = as_vector(direction, dim=dim)
        # population standard deviation of the compromised models, per coordinate
        mu, sigma = scope.models.mean(axis=0), scope.models.std(axis=0)
        lo = np.where(s < 0, mu + 3.0 * sigma, mu - 4.0 * sigma)
        hi = np.where(s < 0, mu + 4.0 * sigma, mu - 3.0 * sigma)
    else:
        benign = scope.models[c:]
        # [max, factor*max] or [max, max/factor], whichever lies beyond the benign maximum; mirrored below the minimum
        above_lo, below_hi, f = benign.max(axis=0), benign.min(axis=0), INTERVAL_FACTOR
        above_hi, below_lo = np.maximum(f * above_lo, above_lo / f), np.minimum(f * below_hi, below_hi / f)
        if spec.objective == "directed_deviation":
            s = as_vector(direction, dim=dim)
            go_above = s < 0
        else:
            base = expected_aggregate(scope.models, spec.target_rule, c)
            above_mid = np.vstack([np.tile((above_lo + above_hi) / 2.0, (c, 1)), benign])
            below_mid = np.vstack([np.tile((below_lo + below_hi) / 2.0, (c, 1)), benign])
            dev_above = np.abs(expected_aggregate(above_mid, spec.target_rule, c) - base)
            dev_below = np.abs(expected_aggregate(below_mid, spec.target_rule, c) - base)
            go_above = dev_above >= dev_below
        lo = np.where(go_above, above_lo, below_lo)
        hi = np.where(go_above, above_hi, below_hi)

    return rng.uniform(lo, hi, size=(c, dim))


def attack_gaussian(models, compromised_count: int, rng: np.random.Generator) -> np.ndarray:
    """Baseline: resample compromised models from a per-coordinate Gaussian fit
    over all before-attack local models."""
    arr = as_model_matrix(models)
    if not 1 <= compromised_count <= arr.shape[0]:
        raise ValueError("compromised count out of range")
    mu = arr.mean(axis=0)
    sigma = arr.std(axis=0)
    return rng.normal(mu, sigma, size=(compromised_count, arr.shape[1]))


def flip_labels(shard: Dataset) -> Dataset:
    """Label-flipping baseline: label l becomes L-1-l for the shard's L classes; features untouched."""
    L = shard.num_classes
    return Dataset(shard.features, L - 1 - shard.labels, L)
