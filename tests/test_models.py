import numpy as np
import pytest

from flrlab.core import RngStream
from flrlab.data import Dataset, synth_blobs
from flrlab.models import (
    ModelSpec,
    Objective,
    error_and_loss,
    error_rate,
    gradient,
    init_params,
    local_update,
    loss,
    predict_proba,
    shard_objective,
)


def toy_objective(kind="lr", n=12, q=4, L=3, hidden=5, seed=0):
    spec = ModelSpec(kind, q, L, hidden=hidden)
    rng = RngStream(seed, "toy").generator()
    X = rng.standard_normal((n, q))
    y = rng.integers(0, L, n)
    return spec, Objective(spec, X, y), rng


class TestModelSpec:
    def test_param_counts(self):
        assert ModelSpec("lr", 784, 10).dim == 785 * 10
        assert ModelSpec("mlp", 784, 10, hidden=32).dim == 785 * 32 + 33 * 10

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("cnn", 4, 2)
        with pytest.raises(ValueError):
            ModelSpec("mlp", 4, 2, hidden=0)


class TestPredictProba:
    def test_zero_params_uniform(self):
        spec = ModelSpec("lr", 3, 4)
        probs = predict_proba(spec, np.zeros(spec.dim), np.ones((1, 3)))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_symmetric_logits(self):
        spec = ModelSpec("lr", 1, 2)
        # weights zero, biases equal -> logits (0, 0) -> (0.5, 0.5)
        probs = predict_proba(spec, np.zeros(spec.dim), np.array([[1.0]]))
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_shift_invariance(self):
        spec = ModelSpec("lr", 2, 3)
        rng = RngStream(1, "p").generator()
        params = rng.standard_normal(spec.dim)
        shifted = params.copy()
        shifted[-3:] += 5.0  # add constant to every class bias = shift all logits
        x = rng.standard_normal((4, 2))
        assert np.allclose(predict_proba(spec, params, x), predict_proba(spec, shifted, x), atol=1e-12)

    def test_rows_sum_to_one(self):
        spec = ModelSpec("mlp", 3, 5, hidden=7)
        rng = RngStream(2, "p").generator()
        probs = predict_proba(spec, rng.standard_normal(spec.dim), rng.standard_normal((6, 3)))
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_dim_mismatch(self):
        spec = ModelSpec("lr", 3, 2)
        with pytest.raises(ValueError):
            predict_proba(spec, np.zeros(5), np.ones((1, 3)))

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 2, 3)])
    def test_rejects_features_that_are_not_an_n_by_q_matrix(self, shape):
        # a single feature row is passed as a one-row matrix
        spec = ModelSpec("lr", 3, 2)
        with pytest.raises(ValueError, match="matrix"):
            predict_proba(spec, np.zeros(spec.dim), np.ones(shape))


class TestLoss:
    def test_confident_correct_is_zero(self):
        spec = ModelSpec("lr", 1, 2)
        # big bias toward the true class for every instance
        params = np.zeros(spec.dim)
        params[-2] = 60.0  # class-0 bias
        obj = Objective(spec, np.ones((3, 1)), np.zeros(3, dtype=int))
        assert loss(obj, params) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction_is_log_L(self):
        spec, obj, _ = toy_objective(L=3)
        assert loss(obj, np.zeros(spec.dim)) == pytest.approx(np.log(3), abs=1e-12)

    def test_matches_per_instance_summation(self):
        spec, obj, rng = toy_objective()
        params = rng.standard_normal(spec.dim)
        probs = predict_proba(spec, params, obj.features)
        manual = 0.0
        for i in range(obj.size):
            manual += -np.log(max(probs[i, obj.labels[i]], 1e-12))
        manual /= obj.size
        assert loss(obj, params) == pytest.approx(manual, abs=1e-12)


def finite_difference(obj, params, step=1e-5):
    fd = np.empty_like(params)
    for j in range(len(params)):
        e = np.zeros_like(params)
        e[j] = step
        fd[j] = (loss(obj, params + e) - loss(obj, params - e)) / (2 * step)
    return fd


class TestGradient:
    @pytest.mark.parametrize("kind,hidden", [("lr", 0), ("mlp", 6)])
    def test_matches_finite_differences(self, kind, hidden):
        spec, obj, rng = toy_objective(kind=kind, hidden=max(hidden, 1))
        for _ in range(5):
            params = rng.standard_normal(spec.dim) * 0.7
            g = gradient(obj, params)
            fd = finite_difference(obj, params)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    def test_duplicated_instance_equals_single(self):
        spec = ModelSpec("lr", 2, 2)
        x = np.array([[0.3, -1.2]])
        y = np.array([1])
        single = Objective(spec, x, y)
        batch = Objective(spec, np.repeat(x, 4, axis=0), np.repeat(y, 4))
        rng = RngStream(4, "g").generator()
        params = rng.standard_normal(spec.dim)
        assert np.allclose(gradient(single, params), gradient(batch, params), atol=1e-12)

    def test_near_zero_at_optimum(self):
        train = synth_blobs(2, 40, 2, 0.05, RngStream(5, "g").generator())
        spec = ModelSpec("lr", 2, 2)
        obj = shard_objective(spec, train)
        w = np.zeros(spec.dim)
        for _ in range(3000):
            w -= 1.0 * gradient(obj, w)
        # separable toy set: gradient norm collapses near the optimum
        assert np.linalg.norm(gradient(obj, w)) < 1e-3

    def test_rejects_empty_batch(self):
        spec, obj, _ = toy_objective()
        with pytest.raises(ValueError):
            gradient(obj, np.zeros(spec.dim), np.array([], dtype=int))


class TestLocalUpdate:
    def test_single_explicit_step(self):
        # one instance, one class pair chosen so the gradient is exactly known:
        # with zero params the gradient of mean CE wrt class-0 bias is p0 - 1 = -0.5
        spec = ModelSpec("lr", 1, 2)
        obj = Objective(spec, np.zeros((1, 1)), np.zeros(1, dtype=int))
        w = local_update(obj, np.zeros(spec.dim), 0.1, 1, 1, RngStream(0, "u").generator())
        assert w[-2] == pytest.approx(0.05, abs=1e-12)
        assert w[-1] == pytest.approx(-0.05, abs=1e-12)

    def test_zero_rate_returns_global(self):
        spec, obj, rng = toy_objective()
        start = rng.standard_normal(spec.dim)
        w = local_update(obj, start, 0.0, 3, 4, RngStream(1, "u").generator())
        assert np.array_equal(w, start)

    def test_two_rounds_equal_manual_steps(self):
        spec, obj, _ = toy_objective()
        start = np.zeros(spec.dim)
        auto = local_update(obj, start, 0.2, 2, 4, RngStream(2, "u").generator())
        rng = RngStream(2, "u").generator()
        w = start.copy()
        for _ in range(2):
            batch = rng.choice(obj.size, size=4, replace=False)
            w -= 0.2 * gradient(obj, w, batch)
        assert np.array_equal(auto, w)


class TestErrorRate:
    def test_all_correct(self):
        spec = ModelSpec("lr", 1, 2)
        params = np.zeros(spec.dim)
        params[0] = 10.0  # feature pushes class 0 for negative x... use explicit data
        data = Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        assert error_rate(spec, params, data) == 0.0

    def test_tie_breaks_to_class_zero(self):
        spec = ModelSpec("lr", 1, 2)
        data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 1, 0, 1]), 2)
        # all-zero params -> uniform probabilities -> argmax tie -> class 0
        assert error_rate(spec, np.zeros(spec.dim), data) == pytest.approx(0.5)

    def test_matches_row_oracle(self):
        spec, obj, rng = toy_objective(n=30)
        params = rng.standard_normal(spec.dim)
        data = Dataset(obj.features, obj.labels, spec.num_classes)
        probs = predict_proba(spec, params, obj.features)
        wrong = sum(int(np.argmax(probs[i]) != obj.labels[i]) for i in range(obj.size))
        assert error_rate(spec, params, data) == pytest.approx(wrong / obj.size)


class TestTrainingSanity:
    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    def test_sgd_learns_separable_blobs(self, kind):
        train = synth_blobs(2, 100, 2, 0.1, RngStream(6, "t").generator())
        spec = ModelSpec(kind, 2, 2, hidden=8)
        obj = shard_objective(spec, train)
        rng = RngStream(7, "t").generator()
        w = init_params(spec, rng)
        for _ in range(200):
            w -= 0.5 * gradient(obj, w, rng.choice(len(train), 32, replace=False))
        assert error_rate(spec, w, train) < 0.05

    def test_full_batch_descent_monotone(self):
        train = synth_blobs(2, 50, 3, 0.4, RngStream(8, "t").generator())
        spec = ModelSpec("lr", 3, 2)
        obj = shard_objective(spec, train)
        w = np.zeros(spec.dim)
        prev = loss(obj, w)
        for _ in range(100):
            w -= 0.1 * gradient(obj, w)
            cur = loss(obj, w)
            assert cur <= prev + 1e-12
            prev = cur


class TestErrorAndLoss:
    """One stacked forward pass against scoring each parameter vector on its own."""

    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    @pytest.mark.parametrize("count", [1, 7])
    def test_rows_are_bit_equal_to_single_vector_scores(self, kind, count):
        spec, obj, rng = toy_objective(kind=kind, n=40, q=6, L=4, hidden=5)
        data = Dataset(obj.features, obj.labels, spec.num_classes)
        stack = 2.0 * rng.standard_normal((count, spec.dim))
        scores = error_and_loss(spec, stack, data)
        expected = [(error_rate(spec, w, data), loss(obj, w)) for w in stack]
        assert scores.shape == (count, 2)
        assert np.array_equal(scores, np.array(expected))

    def test_rejects_a_stack_of_the_wrong_dimension(self):
        spec, obj, _ = toy_objective()
        data = Dataset(obj.features, obj.labels, spec.num_classes)
        with pytest.raises(ValueError, match="dimension"):
            error_and_loss(spec, np.zeros((2, spec.dim + 1)), data)

    def test_rejects_an_empty_dataset(self):
        spec = ModelSpec("lr", 4, 3)
        with pytest.raises(ValueError, match="empty"):
            error_and_loss(spec, np.zeros((2, spec.dim)), Dataset(np.empty((0, 4)), np.empty(0, dtype=int), 3))
