"""Every public entry that takes a model matrix, a parameter vector or a
shard's row index rejects malformed input with ValueError, whichever function
in its call chain does the check."""

import numpy as np
import pytest

from flrlab.aggregation import (
    AggregatorSpec,
    aggregate,
    bulyan,
    krum,
    mean,
    median,
    pairwise_sq_dists,
    trimmed_mean,
)
from flrlab.attacks import AttackSpec, KnowledgeScope, attack_gaussian, attack_krum
from flrlab.core import RngStream
from flrlab.data import synth_blobs
from flrlab.defenses import apply_defense, impact_scores
from flrlab.models import (
    ModelSpec,
    Objective,
    error_and_loss,
    error_rate,
    gradient,
    local_update,
    loss,
    shard_objective,
)

M, D = 7, 6  # LR over 2 features and 2 classes has 6 parameters
SPEC = ModelSpec("lr", 2, 2)
VALIDATION = synth_blobs(2, 10, 2, 0.2, RngStream(0, "checks/val").generator())
MEAN = AggregatorSpec("mean")


def good_matrix() -> np.ndarray:
    return RngStream(0, "checks/models").generator().standard_normal((M, D))


def bad_matrices() -> dict[str, np.ndarray]:
    good = good_matrix()
    nan, inf, pinf = good.copy(), good.copy(), good.copy()
    nan[3, 2] = np.nan
    inf[5, 0] = -np.inf
    # +inf and NaN sort to a column's last row and -inf to its first: a check of a sort's ends must read both
    pinf[0, 1], pinf[-1, 4] = np.inf, np.nan
    return {"nan": nan, "inf": inf, "+inf": pinf, "1-D": good[0], "empty": np.empty((0, D))}


MATRIX_ENTRIES = {
    "pairwise_sq_dists": pairwise_sq_dists,
    "mean": mean,
    "krum": lambda m: krum(m, 1),
    "trimmed_mean": lambda m: trimmed_mean(m, 1),
    "median": median,
    "bulyan": lambda m: bulyan(m, 1, 3, 1),
    "aggregate": lambda m: aggregate(AggregatorSpec("trimmed_mean", trim_count=1), m),
    "impact_scores": lambda m: impact_scores(m, MEAN, SPEC, VALIDATION),
    "error_and_loss": lambda m: error_and_loss(shard_objective(SPEC, VALIDATION), m),
    "apply_defense": lambda m: apply_defense(m, AggregatorSpec("mean", assumed_compromised=1), SPEC, "err", VALIDATION),
    "attack_krum": lambda m: attack_krum(KnowledgeScope("full", m, np.zeros(D)), AttackSpec("krum"), 1,
                                         np.random.default_rng(0)),
    "KnowledgeScope": lambda m: KnowledgeScope("full", m, np.zeros(D)),
    "attack_gaussian": lambda m: attack_gaussian(m, 1, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
def test_model_matrix_entries_accept_the_unbroken_matrix(entry):
    MATRIX_ENTRIES[entry](good_matrix())


@pytest.mark.parametrize("kind", sorted(bad_matrices()))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
def test_model_matrix_entries_reject_bad_input(entry, kind):
    with pytest.raises(ValueError):
        MATRIX_ENTRIES[entry](bad_matrices()[kind])


VECTOR_ENTRIES = {
    "local_update": lambda w: local_update(shard_objective(SPEC, VALIDATION), w, 0.1, 1, 4, np.random.default_rng(0)),
    "gradient": lambda w: gradient(shard_objective(SPEC, VALIDATION), w),
    "loss": lambda w: loss(shard_objective(SPEC, VALIDATION), w),
    "error_rate": lambda w: error_rate(SPEC, w, VALIDATION),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_parameter_vector_entries_accept_a_finite_vector(entry):
    VECTOR_ENTRIES[entry](np.zeros(D))


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_parameter_vector_entries_reject_nan(entry):
    params = np.zeros(D)
    params[1] = np.nan
    with pytest.raises(ValueError):
        VECTOR_ENTRIES[entry](params)


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_parameter_vector_entries_reject_the_wrong_dimension(entry):
    with pytest.raises(ValueError, match="dimension"):
        VECTOR_ENTRIES[entry](np.zeros(D + 1))


BAD_ROWS = {
    "2-D": np.array([[0, 1], [2, 3]]),
    "float": np.array([0.0, 1.0, 2.0]),
    "negative": np.array([0, -1]),
    "past the end": np.array([3, len(VALIDATION)]),
    "empty": np.array([], dtype=np.int64),
}
ROW_ENTRIES = {
    "shard_objective": lambda rows: shard_objective(SPEC, VALIDATION, rows),
    "Objective": lambda rows: Objective(SPEC, VALIDATION.features, VALIDATION.labels, rows),
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
def test_shard_rows_are_rejected_when_the_objective_is_built(entry, kind):
    with pytest.raises(ValueError):
        ROW_ENTRIES[entry](BAD_ROWS[kind])


def test_shard_rows_accept_any_integer_index_in_range():
    for rows in ([0, len(VALIDATION) - 1], np.arange(3, dtype=np.int32), np.array([5, 2, 5])):
        assert shard_objective(SPEC, VALIDATION, rows).size == len(rows)


BAD_BATCHES = {
    "fractional": [0.5, 1.9],  # a cast to int64 would read rows 0 and 1
    "whole floats": np.array([0.0, 1.0]),
    "bool": np.array([True, False, True]),
    "empty": np.array([], dtype=np.int64),
}


@pytest.mark.parametrize("kind", sorted(BAD_BATCHES))
def test_gradient_rejects_a_batch_that_is_not_an_integer_index(kind):
    with pytest.raises(ValueError):
        gradient(shard_objective(SPEC, VALIDATION), np.zeros(D), BAD_BATCHES[kind])


def test_gradient_accepts_any_integer_batch():
    objective, w = shard_objective(SPEC, VALIDATION, np.arange(1, 9)), np.full(D, 0.1)
    expected = gradient(objective, w, np.array([0, 3, 3], dtype=np.int64))
    for batch in ([0, 3, 3], np.array([0, 3, 3], dtype=np.int32), np.array([0, 3, 3], dtype=np.uint8)):
        assert np.array_equal(gradient(objective, w, batch), expected)
