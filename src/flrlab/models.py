"""Trainable classifiers: multi-class logistic regression and a one-hidden-layer MLP.

Both are stacks of dense layers (``ModelSpec.layers``) with ReLU between
them: one q -> L layer for LR, q -> h -> L for the MLP.  All parameters live
in a single flat float64 vector so that per-coordinate aggregation rules
apply directly; layer by layer, input to output, it holds the row-major
(fan-in, fan-out) weight matrix followed by the bias: [W1, b1, W2, b2].

The forward pass also takes a (B, dim) stack of such vectors: each layer's
weights are then a (B, fan-in, fan-out) stack.  Every slice of a stacked
product is its own BLAS call, so each model's probabilities are bit-equal
to those of a forward pass over that model alone.  :func:`error_and_loss`
is the one scorer: it takes a stack's error rates and cross-entropies from
one such pass, and :func:`error_rate` and :func:`loss` are its one-row case.

A process holds the training matrix once: an :class:`Objective` keeps the
shared, read-only features and labels of a dataset, and a device shard is a
row index into them.  :func:`_instances` gathers a batch's rows from that
index, giving the same C-ordered array a copied shard would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flrlab.core import as_model_matrix, as_vector
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
    def layers(self) -> tuple[tuple[int, int], ...]:
        """(fan-in, fan-out) of each dense layer, input to output."""
        q, L = self.num_features, self.num_classes
        if self.kind == "lr":
            return ((q, L),)
        return ((q, self.hidden), (self.hidden, L))

    @property
    def dim(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layers)


@dataclass(frozen=True)
class Objective:
    """Mean cross-entropy of a model spec over one data shard.

    ``features`` and ``labels`` are a whole dataset's, shared and not copied;
    the shard is the instances ``rows`` of them (every instance when ``rows``
    is None).  ``rows`` must be a non-empty 1-D integer index in [0, n).
    """

    spec: ModelSpec
    features: np.ndarray
    labels: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != self.spec.num_features:
            raise ValueError("shard features do not match the model spec")
        if len(self.labels) != len(self.features):
            raise ValueError("shard labels and features differ in length")
        if self.rows is None:
            return
        rows = np.asarray(self.rows)
        if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"shard rows must be a 1-D integer index, got {rows.dtype} of shape {rows.shape}")
        if rows.size == 0:
            raise ValueError("device shard is empty")
        if rows.min() < 0 or rows.max() >= len(self.labels):
            raise ValueError(f"shard rows must lie in [0, {len(self.labels)})")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.labels) if self.rows is None else len(self.rows)


def shard_objective(spec: ModelSpec, dataset: Dataset, indices=None) -> Objective:
    """The objective over the ``indices`` rows of ``dataset`` (default: all), sharing its arrays."""
    return Objective(spec, dataset.features, dataset.labels, indices)


def _instances(objective: Objective, batch=None) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of the shard's instances at positions ``batch`` (default: all of them)."""
    rows = objective.rows
    if batch is not None:
        rows = batch if rows is None else rows[batch]
    if rows is None:
        return objective.features, objective.labels
    return objective.features[rows], objective.labels[rows]


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, bias) views into a flat parameter vector, or into each
    row of a (B, dim) stack: weights (..., fan_in, fan_out), biases (..., 1, fan_out)."""
    layers, i, batch = [], 0, params.shape[:-1]
    for fan_in, fan_out in spec.layers:
        j = i + fan_in * fan_out
        layers.append((params[..., i:j].reshape(*batch, fan_in, fan_out), params[..., None, j : j + fan_out]))
        i = j + fan_out
    return layers


def _forward(layers, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (the input of every layer, x first; the softmax class probabilities).

    With stacked layers every input after x and the probabilities gain the
    stack's leading axis: (B, n, L) probabilities for B models.
    """
    inputs = [x]
    for w, b in layers[:-1]:
        inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
    w, b = layers[-1]
    probs = inputs[-1] @ w  # the logits, turned into probabilities in place
    probs += b
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return inputs, probs


def loss(objective: Objective, params) -> float:
    """Mean cross-entropy over the shard, probabilities clamped at 1e-12."""
    return float(error_and_loss(objective, as_vector(params, dim=objective.spec.dim)[None])[0, 1])


def gradient(objective: Objective, params, batch_indices=None) -> np.ndarray:
    """Analytic gradient of the mean cross-entropy over a batch of integer shard
    positions (default: the whole shard)."""
    p = as_vector(params, dim=objective.spec.dim)
    if batch_indices is not None:
        batch_indices = np.asarray(batch_indices)
        if batch_indices.size == 0:
            raise ValueError("empty batch")
        if not np.issubdtype(batch_indices.dtype, np.integer):
            raise ValueError(f"batch indices must be integers, got {batch_indices.dtype}")
    x, y = _instances(objective, batch_indices)
    n = len(y)
    layers = _unpack(objective.spec, p)
    inputs, delta = _forward(layers, x)
    delta[np.arange(n), y] -= 1.0
    delta /= n  # d loss / d logits; the loop carries it back through each layer
    grads = []
    for k in reversed(range(len(layers))):
        grads[:0] = [(inputs[k].T @ delta).ravel(), delta.sum(axis=0)]
        if k:
            delta = (delta @ layers[k][0].T) * (inputs[k] > 0)
    return np.concatenate(grads)


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
    return float(error_and_loss(shard_objective(spec, dataset), as_vector(params, dim=spec.dim)[None])[0, 0])


def error_and_loss(objective: Objective, param_stack) -> np.ndarray:
    """(B, 2) error rate and mean cross-entropy over the shard of each row of a
    (B, dim) stack of parameter vectors, from one forward pass.

    Argmax ties go to the lowest class, and probabilities are clamped at 1e-12
    before the log.  :func:`error_rate` and :func:`loss` are its one-row case.
    """
    if objective.size == 0:
        raise ValueError("cannot evaluate an empty shard")
    stack = as_model_matrix(param_stack)
    if stack.shape[1] != objective.spec.dim:
        raise ValueError(f"expected dimension {objective.spec.dim}, got {stack.shape[1]}")
    x, y = _instances(objective)
    probs = _forward(_unpack(objective.spec, stack), x)[1]
    errors = np.mean(np.argmax(probs, axis=-1) != y, axis=-1)
    picked = np.log(np.clip(probs[:, np.arange(len(y)), y], PROB_FLOOR, 1.0))
    # row by row: a mean along the last axis of the (B, n) array rounds differently from the 1-D one
    return np.column_stack((errors, [-np.mean(row) for row in picked]))


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial global model: zeros for LR (``rng`` is not drawn from); for the MLP,
    He-scaled normal weights from ``rng`` and zero biases.

    The MLP needs non-zero weights to break hidden-unit symmetry.
    """
    if spec.kind == "lr":
        return np.zeros(spec.dim)
    parts = []
    for fan_in, fan_out in spec.layers:
        parts += [(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)
