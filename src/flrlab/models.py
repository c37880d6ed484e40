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

The forward pass takes each layer's product from its caller.  The SGD
gradient and :func:`error_and_loss` form ``x @ w``; :func:`loss` and
:func:`error_rate`, which score one model over a whole dataset, form it as
``(wᵀ·xᵀ)ᵀ`` over transposed views (:func:`_features_long_product`), so
the n feature rows are BLAS's long operand.  On OpenBLAS 0.3 at one thread
that is 1.3-1.7x faster at 2000-5000 rows of 784 features.  So :func:`loss`
and :func:`error_rate` agree with an :func:`error_and_loss` row to rounding,
not bit for bit: the bits matched from a few hundred rows up, but not at the
100-row slices the defenses score, which keep ``x @ w`` (it is also faster
there).

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


def _features_long_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` formed as (wᵀ·xᵀ)ᵀ over transposed views, then copied into C order.

    The copy is of the small (..., n, fan_out) result only; without it the
    softmax's row sums would run over another layout and round differently.
    """
    return np.ascontiguousarray(np.swapaxes(np.swapaxes(w, -1, -2) @ np.swapaxes(x, -1, -2), -1, -2))


def _forward(layers, x: np.ndarray, product=np.matmul) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (the input of every layer, x first; the softmax class probabilities).

    ``product(inputs, weights)`` forms each layer's product.  With stacked
    layers every input after x and the probabilities gain the stack's
    leading axis: (B, n, L) probabilities for B models.
    """
    inputs = [x]
    for w, b in layers[:-1]:
        inputs.append(np.maximum(product(inputs[-1], w) + b, 0.0))
    w, b = layers[-1]
    probs = product(inputs[-1], w)  # the logits, turned into probabilities in place
    probs += b
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return inputs, probs


def loss(objective: Objective, params) -> float:
    """Mean cross-entropy over the shard, probabilities clamped at 1e-12."""
    return float(_scores(objective, as_vector(params, dim=objective.spec.dim)[None], _features_long_product)[0, 1])


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
    return _gradient(objective, p, batch_indices, np.empty_like(p))


def _gradient(objective: Objective, params: np.ndarray, batch, out: np.ndarray) -> np.ndarray:
    """:func:`gradient` without its checks, written into ``out`` (laid out like ``params``)."""
    x, y = _instances(objective, batch)
    n = len(y)
    layers = _unpack(objective.spec, params)
    inputs, delta = _forward(layers, x)
    delta[np.arange(n), y] -= 1.0
    delta /= n  # d loss / d logits; the loop carries it back through each layer
    grads = _unpack(objective.spec, out)
    for k in reversed(range(len(layers))):
        np.matmul(inputs[k].T, delta, out=grads[k][0])
        np.sum(delta, axis=0, keepdims=True, out=grads[k][1])
        if k:
            delta = (delta @ layers[k][0].T) * (inputs[k] > 0)
    return out


def local_update(
    objective: Objective,
    w_global,
    learning_rate: float,
    rounds: int,
    batch_size: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``rounds`` SGD steps from the received global model on fresh batches.

    ``w_global`` is checked once, not on every step.  The result is written
    into ``out`` (say, a row of the model matrix) or a new vector, and returned.
    """
    if learning_rate < 0:
        raise ValueError("learning rate must be non-negative")
    if rounds < 1:
        raise ValueError("need at least one local round")
    w_global = as_vector(w_global, dim=objective.spec.dim)
    if out is None:
        out = np.empty_like(w_global)
    out[...] = w_global
    step = np.empty_like(w_global)
    for _ in range(rounds):
        batch = sample_batch(objective.size, batch_size, rng)
        _gradient(objective, out, batch, step)
        step *= learning_rate
        out -= step
    return out


def error_rate(spec: ModelSpec, params, dataset: Dataset) -> float:
    """Fraction of misclassified instances; argmax ties go to the lowest class."""
    stack = as_vector(params, dim=spec.dim)[None]
    return float(_scores(shard_objective(spec, dataset), stack, _features_long_product)[0, 0])


def error_and_loss(objective: Objective, param_stack) -> np.ndarray:
    """(B, 2) error rate and mean cross-entropy over the shard of each row of a
    (B, dim) stack of parameter vectors, from one forward pass.

    Argmax ties go to the lowest class, and probabilities are clamped at 1e-12
    before the log.  :func:`error_rate` and :func:`loss` are its one-row case,
    taken with another product (module docstring).
    """
    return _scores(objective, param_stack, np.matmul)


def _scores(objective: Objective, param_stack, product) -> np.ndarray:
    """:func:`error_and_loss` with each layer's product formed by ``product``."""
    if objective.size == 0:
        raise ValueError("cannot evaluate an empty shard")
    stack = as_model_matrix(param_stack)
    if stack.shape[1] != objective.spec.dim:
        raise ValueError(f"expected dimension {objective.spec.dim}, got {stack.shape[1]}")
    x, y = _instances(objective)
    probs = _forward(_unpack(objective.spec, stack), x, product)[1]
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
