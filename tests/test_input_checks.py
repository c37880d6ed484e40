"""Every public entry that takes a model matrix or a parameter vector rejects
malformed input with ValueError, whichever function in its call chain does
the check."""

import numpy as np
import pytest

from flrlab.aggregation import (
    AggregatorSpec,
    aggregate,
    bulyan,
    krum,
    krum_scores,
    mean,
    median,
    pairwise_sq_dists,
    trimmed_mean,
)
from flrlab.attacks import KnowledgeScope, attack_gaussian, krum_shift_upper_bound
from flrlab.core import RngStream
from flrlab.data import synth_blobs
from flrlab.defenses import DefenseSpec, apply_defense, impact_scores
from flrlab.models import ModelSpec, error_and_loss, gradient, local_update, loss, predict_proba, shard_objective

M, D = 7, 6  # LR over 2 features and 2 classes has 6 parameters
SPEC = ModelSpec("lr", 2, 2)
VALIDATION = synth_blobs(2, 10, 2, 0.2, RngStream(0, "checks/val").generator())
MEAN = AggregatorSpec("mean")


def good_matrix() -> np.ndarray:
    return RngStream(0, "checks/models").generator().standard_normal((M, D))


def bad_matrices() -> dict[str, np.ndarray]:
    good = good_matrix()
    nan, inf = good.copy(), good.copy()
    nan[3, 2] = np.nan
    inf[5, 0] = -np.inf
    return {"nan": nan, "inf": inf, "1-D": good[0], "empty": np.empty((0, D))}


MATRIX_ENTRIES = {
    "pairwise_sq_dists": pairwise_sq_dists,
    "mean": mean,
    "krum_scores": lambda m: krum_scores(m, 1),
    "krum": lambda m: krum(m, 1),
    "trimmed_mean": lambda m: trimmed_mean(m, 1),
    "median": median,
    "bulyan": lambda m: bulyan(m, 1, 3, 1),
    "aggregate": lambda m: aggregate(AggregatorSpec("trimmed_mean", trim_count=1), m),
    "impact_scores": lambda m: impact_scores(m, MEAN, SPEC, VALIDATION),
    "error_and_loss": lambda m: error_and_loss(SPEC, m, VALIDATION),
    "apply_defense": lambda m: apply_defense(m, AggregatorSpec("mean", assumed_compromised=1), SPEC,
                                             DefenseSpec("err", VALIDATION)),
    "krum_shift_upper_bound": lambda m: krum_shift_upper_bound(m, np.zeros(D), 1),
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
    "predict_proba": lambda w: predict_proba(SPEC, w, VALIDATION.features),
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
