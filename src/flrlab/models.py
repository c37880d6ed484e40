"""Trainable classifiers: multi-class logistic regression and a one-hidden-layer MLP.

Both models keep all parameters (weights and biases) in a single flat
float64 vector so that per-coordinate aggregation rules apply directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.core import as_vector
from flrlab.data import Dataset, sample_batch

MODEL_KINDS = ("lr", "mlp")
PROB_FLOOR = 1e-12  # clamp before log so cross-entropy stays finite


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; parameter count is a pure function of it."""

    kind: str  # one of MODEL_KINDS
    num_features: int
    num_classes: int
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "mlp" and self.hidden < 1:
            raise ValueError("mlp needs a positive hidden width")
        if self.num_features < 1 or self.num_classes < 2:
            raise ValueError("need num_features >= 1 and num_classes >= 2")

    @property
    def dim(self) -> int:
        q, L, h = self.num_features, self.num_classes, self.hidden
        if self.kind == "lr":
            return (q + 1) * L
        return (q + 1) * h + (h + 1) * L


@dataclass(frozen=True)
class Objective:
    """Mean cross-entropy of a model spec over one data shard."""

    spec: ModelSpec
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != self.spec.num_features:
            raise ValueError("shard features do not match the model spec")
        if len(self.labels) != len(self.features):
            raise ValueError("shard labels and features differ in length")

    @property
    def size(self) -> int:
        return len(self.labels)


def shard_objective(spec: ModelSpec, dataset: Dataset, indices=None) -> Objective:
    if indices is None:
        return Objective(spec, dataset.features, dataset.labels)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("device shard is empty")
    return Objective(spec, dataset.features[idx], dataset.labels[idx])


def _unpack_lr(spec: ModelSpec, params: np.ndarray):
    q, L = spec.num_features, spec.num_classes
    w = params[: q * L].reshape(q, L)
    b = params[q * L :]
    return w, b


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    q, L, h = spec.num_features, spec.num_classes, spec.hidden
    i = 0
    w1 = params[i : i + q * h].reshape(q, h); i += q * h
    b1 = params[i : i + h]; i += h
    w2 = params[i : i + h * L].reshape(h, L); i += h * L
    b2 = params[i : i + L]
    return w1, b1, w2, b2


def _logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Returns (logits, hidden pre-activation or None, hidden activation or None)."""
    if spec.kind == "lr":
        w, b = _unpack_lr(spec, params)
        return x @ w + b, None, None
    w1, b1, w2, b2 = _unpack_mlp(spec, params)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    return a1 @ w2 + b2, z1, a1


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(spec: ModelSpec, params, features) -> np.ndarray:
    """Class probabilities; accepts a single feature row or an (n, q) matrix."""
    p = as_vector(params, dim=spec.dim)
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.num_features:
        raise ValueError("feature width does not match the model spec")
    probs = _softmax(_logits(spec, p, x)[0])
    return probs[0] if single else probs


def loss(objective: Objective, params) -> float:
    """Mean cross-entropy over the shard, probabilities clamped at 1e-12."""
    if objective.size == 0:
        raise ValueError("cannot evaluate loss on an empty shard")
    p = as_vector(params, dim=objective.spec.dim)
    probs = _softmax(_logits(objective.spec, p, objective.features)[0])
    picked = probs[np.arange(objective.size), objective.labels]
    return float(-np.mean(np.log(np.clip(picked, PROB_FLOOR, 1.0))))


def gradient(objective: Objective, params, batch_indices=None) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy over a batch (default: whole shard)."""
    p = as_vector(params, dim=objective.spec.dim)
    if batch_indices is None:
        x, y = objective.features, objective.labels
    else:
        idx = np.asarray(batch_indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("empty batch")
        x, y = objective.features[idx], objective.labels[idx]
    n = len(y)
    spec = objective.spec
    logits, z1, a1 = _logits(spec, p, x)
    dlogits = _softmax(logits)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    if spec.kind == "lr":
        gw = x.T @ dlogits
        gb = dlogits.sum(axis=0)
        return np.concatenate([gw.ravel(), gb])
    _, _, w2, _ = _unpack_mlp(spec, p)
    gw2 = a1.T @ dlogits
    gb2 = dlogits.sum(axis=0)
    da1 = dlogits @ w2.T
    dz1 = da1 * (z1 > 0)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def local_update(
    objective: Objective,
    w_global,
    learning_rate: float,
    rounds: int,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run ``rounds`` SGD steps from the received global model on fresh batches."""
    if learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    if rounds < 1:
        raise ValueError("need at least one local round")
    w = np.array(w_global, dtype=np.float64)  # gradient checks it
    for _ in range(rounds):
        batch = sample_batch(objective.size, batch_size, rng)
        w -= learning_rate * gradient(objective, w, batch)
    return w


def error_rate(spec: ModelSpec, params, dataset: Dataset) -> float:
    """Fraction of misclassified instances; argmax ties go to the lowest class."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate error rate on an empty dataset")
    probs = predict_proba(spec, params, dataset.features)
    predicted = np.argmax(probs, axis=1)
    return float(np.mean(predicted != dataset.labels))


def init_params(spec: ModelSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial global model: zeros for LR; small random hidden weights for the MLP.

    The MLP needs non-zero weights to break hidden-unit symmetry.
    """
    if spec.kind == "lr":
        return np.zeros(spec.dim)
    if rng is None:
        raise ValueError("mlp initialisation needs a generator")
    q, L, h = spec.num_features, spec.num_classes, spec.hidden
    w1 = rng.standard_normal((q, h)) * np.sqrt(2.0 / q)
    w2 = rng.standard_normal((h, L)) * np.sqrt(2.0 / h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(L)])
