import numpy as np
import pytest

from flrlab.aggregation import (
    _DIRECT_PAIRWISE_LIMIT,
    RULES,
    AggregatorSpec,
    aggregate,
    bulyan,
    bulyan_counts,
    krum,
    krum_scores,
    krum_select,
    mean,
    median,
    pairwise_sq_dists,
    trimmed_mean,
)
from flrlab.core import RngStream

from oracles import (
    oracle_bulyan,
    oracle_krum,
    oracle_krum_scores,
    oracle_mean,
    oracle_median,
    oracle_trimmed_mean,
    sq_dist,
)


def random_models(rng, m=None, d=None, scale=1.0):
    m = m or int(rng.integers(3, 8))
    d = d or int(rng.integers(1, 6))
    return rng.standard_normal((m, d)) * scale


class TestMean:
    def test_idempotent_on_identical(self):
        v = np.array([1.5, -2.0, 3.0])
        assert np.array_equal(mean(np.tile(v, (4, 1))), v)

    def test_arithmetic(self):
        models = np.array([[1.0], [2.0], [27.0]])
        assert mean(models)[0] == pytest.approx(10.0)

    def test_permutation_invariant(self):
        rng = RngStream(0, "agg").generator()
        models = random_models(rng, m=5, d=3)
        perm = rng.permutation(5)
        assert np.allclose(mean(models), mean(models[perm]), atol=1e-12)


class TestKrum:
    def test_identical_models_score_zero(self):
        models = np.tile(np.array([2.0, 3.0]), (5, 1))
        assert np.allclose(krum_scores(models, 1), 0.0)

    def test_frozen_oracle_instance(self):
        # Brute-force oracle output for [0, .1, .2, .3, 10], c=1 (2 neighbours).
        models = np.array([[0.0], [0.1], [0.2], [0.3], [10.0]])
        scores = krum_scores(models, 1)
        expected = oracle_krum_scores(models.tolist(), 1)
        assert np.allclose(scores, [0.05, 0.02, 0.02, 0.05, 190.13], atol=1e-6)
        assert np.allclose(scores, expected, atol=1e-15)
        chosen, vector = krum(models, 1)
        oracle_choice, oracle_vec = oracle_krum(models.tolist(), 1)
        # In exact arithmetic models 1 and 2 tie at 0.02; in float64 the oracle
        # itself resolves to index 2 because (0.3-0.2)**2 < 0.1**2.
        assert chosen == oracle_choice == 2
        assert np.allclose(vector, oracle_vec, atol=0)

    def test_tie_breaks_to_lowest_index(self):
        # Integer-symmetric clusters give an exact score tie between 1 and 2.
        models = np.array([[0.0], [1.0], [3.0], [4.0], [100.0]])
        scores = krum_scores(models, 1)
        assert scores[1] == scores[2]
        chosen, _ = krum(models, 1)
        assert chosen == 1

    def test_outlier_never_selected(self):
        v = np.array([1.0, 1.0])
        models = np.vstack([np.tile(v, (5, 1)), [[50.0, 50.0]]])
        chosen, vector = krum(models, 1)
        assert chosen < 5
        assert np.array_equal(vector, v)

    def test_output_is_an_input(self):
        rng = RngStream(1, "agg").generator()
        models = random_models(rng, m=7, d=4)
        _, vector = krum(models, 2)
        assert any(np.array_equal(vector, row) for row in models)

    def test_scores_permute_with_models(self):
        rng = RngStream(2, "agg").generator()
        models = random_models(rng, m=6, d=3)
        perm = rng.permutation(6)
        direct = krum_scores(models, 1)
        permuted = krum_scores(models[perm], 1)
        assert np.allclose(direct[perm], permuted, atol=1e-12)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            krum_scores(np.zeros((4, 2)), 2)


class TestKrumSelect:
    def test_matches_krum_on_the_subset(self):
        rng = RngStream(11, "select").generator()
        for _ in range(50):
            models = random_models(rng, m=int(rng.integers(6, 10)))
            rows = sorted(rng.choice(len(models), size=int(rng.integers(4, len(models) + 1)), replace=False))
            c = int(rng.integers(0, len(rows) - 2))
            chosen = krum_select(pairwise_sq_dists(models), rows, c)
            assert chosen == rows[krum(models[rows], c)[0]]

    def test_tie_goes_to_earliest_position_in_rows(self):
        sq = pairwise_sq_dists(np.zeros((5, 2)))
        assert krum_select(sq, [3, 1, 4], 0) == 3

    def test_neighbour_count_clips_at_zero(self):
        models = np.array([[0.0], [5.0], [9.0]])
        assert krum_select(pairwise_sq_dists(models), [2, 1, 0], 4) == 2


class TestTrimmedMean:
    def test_zero_trim_equals_mean(self):
        rng = RngStream(3, "agg").generator()
        models = random_models(rng, m=6, d=4)
        assert np.allclose(trimmed_mean(models, 0), mean(models), atol=1e-12)

    def test_sorted_slice(self):
        models = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
        assert trimmed_mean(models, 1)[0] == pytest.approx(3.0)

    def test_spiking_the_maximum_is_trimmed_away(self):
        # Raising a coordinate that is already the per-coordinate maximum keeps
        # the trimmed set identical, so the output cannot move.
        rng = RngStream(4, "agg").generator()
        models = random_models(rng, m=7, d=3)
        base = trimmed_mean(models, 1)
        spiked = models.copy()
        top = np.argmax(spiked, axis=0)
        for j in range(spiked.shape[1]):
            spiked[top[j], j] += 1000.0
        assert np.allclose(trimmed_mean(spiked, 1), base, atol=1e-12)

    def test_single_outlier_influence_is_bounded(self):
        # A lone outlier coordinate cannot push the output past the remaining values.
        models = np.array([[1.0], [2.0], [3.0], [4.0], [100.0]])
        spiked = models.copy()
        spiked[1, 0] += 1e9
        out = trimmed_mean(spiked, 1)[0]
        assert out <= 100.0

    def test_rejects_half_trim(self):
        with pytest.raises(ValueError):
            trimmed_mean(np.zeros((4, 1)), 2)


class TestMedian:
    def test_singleton(self):
        assert median(np.array([[3.0]]))[0] == 3.0

    def test_even_count_averages_middle(self):
        models = np.array([[1.0], [2.0], [3.0], [4.0]])
        assert median(models)[0] == pytest.approx(2.5)

    def test_odd(self):
        assert median(np.array([[1.0], [5.0], [2.0]]))[0] == pytest.approx(2.0)

    def test_equals_max_trim(self):
        rng = RngStream(5, "agg").generator()
        for m in range(1, 41):
            models = random_models(rng, m=m)
            assert np.array_equal(median(models), trimmed_mean(models, (m - 1) // 2))


class TestBulyan:
    def test_idempotent_on_identical(self):
        v = np.array([0.5, -1.5])
        models = np.tile(v, (9, 1))
        assert np.allclose(bulyan(models, 2, 5, 1), v, atol=1e-12)

    def test_gamma_closest_to_median(self):
        # selected values per coordinate {1,2,3,4,10}: median 3, closest 3 -> {2,3,4}
        models = np.array([[1.0], [2.0], [3.0], [4.0], [10.0]])
        out = bulyan(models, 0, 5, 3)
        assert out[0] == pytest.approx(3.0)

    def test_degenerate_equals_mean(self):
        rng = RngStream(6, "agg").generator()
        models = random_models(rng, m=6, d=3)
        assert np.allclose(bulyan(models, 0, 6, 6), mean(models), atol=1e-12)

    def test_constraint_validation(self):
        models = np.zeros((9, 2))
        with pytest.raises(ValueError):
            bulyan(models, 2, 6, 1)  # theta > m - 2c
        with pytest.raises(ValueError):
            bulyan(models, 2, 5, 2)  # gamma > theta - 2c
        with pytest.raises(ValueError, match="non-negative"):
            bulyan(models, -1, 11, 1)  # theta = m + 2 would pass the count chain

    @pytest.mark.parametrize("c", [0, 1, 2])
    def test_counts_follow_the_model_count(self, c):
        rng = RngStream(c, "bulyan-counts").generator()
        spec = AggregatorSpec("bulyan", assumed_compromised=c)
        for m in range(4 * c + 1, 4 * c + 7):
            assert bulyan_counts(m, c) == (m - 2 * c, m - 4 * c)
            models = random_models(rng, m=m, d=4)
            expected = oracle_bulyan(models.tolist(), c, m - 2 * c, m - 4 * c)
            assert np.allclose(aggregate(spec, models), expected, rtol=0, atol=1e-12), m

    @pytest.mark.parametrize("c", [1, 2])
    def test_fewer_than_4c_plus_1_models_rejected(self, c):
        spec = AggregatorSpec("bulyan", assumed_compromised=c)
        with pytest.raises(ValueError, match="4c"):
            aggregate(spec, np.zeros((4 * c, 2)))
        with pytest.raises(ValueError):
            spec.validate(4 * c)
        spec.validate(4 * c + 1)


def valid_random_instance(rng):
    """Random (models, specs) obeying every rule's parameter constraints."""
    m = int(rng.integers(3, 8))
    d = int(rng.integers(1, 6))
    models = rng.standard_normal((m, d))
    krum_c = int(rng.integers(0, m - 2))
    trim = int(rng.integers(0, (m - 1) // 2 + 1))
    bulyan_params = None
    for c in range(m // 4, -1, -1):
        theta_max = m - 2 * c
        if theta_max >= 2 * c + 1:
            theta = int(rng.integers(2 * c + 1, theta_max + 1))
            gamma = int(rng.integers(1, theta - 2 * c + 1))
            bulyan_params = (c, theta, gamma)
            break
    return models, krum_c, trim, bulyan_params


class TestOracleEquivalence:
    def test_two_hundred_random_instances(self):
        rng = RngStream(12345, "oracle").generator()
        for _ in range(200):
            models, krum_c, trim, bulyan_params = valid_random_instance(rng)
            rows = models.tolist()
            assert np.allclose(mean(models), oracle_mean(rows), atol=1e-12)
            assert np.allclose(median(models), oracle_median(rows), atol=1e-12)
            assert np.allclose(trimmed_mean(models, trim), oracle_trimmed_mean(rows, trim), atol=1e-12)
            chosen, vector = krum(models, krum_c)
            o_chosen, o_vector = oracle_krum(rows, krum_c)
            assert chosen == o_chosen
            assert np.allclose(vector, o_vector, atol=1e-12)
            assert any(np.array_equal(vector, row) for row in models)
            assert np.array_equal(median(models), trimmed_mean(models, (models.shape[0] - 1) // 2))
            if bulyan_params:
                c, theta, gamma = bulyan_params
                assert np.allclose(bulyan(models, c, theta, gamma), oracle_bulyan(rows, c, theta, gamma), atol=1e-12)

    def test_permutation_invariance_all_rules(self):
        rng = RngStream(99, "perm").generator()
        for _ in range(50):
            models, krum_c, trim, bulyan_params = valid_random_instance(rng)
            perm = rng.permutation(models.shape[0])
            permuted = models[perm]
            assert np.allclose(mean(models), mean(permuted), atol=1e-12)
            assert np.allclose(median(models), median(permuted), atol=1e-12)
            assert np.allclose(trimmed_mean(models, trim), trimmed_mean(permuted, trim), atol=1e-12)
            idx_a, vec_a = krum(models, krum_c)
            idx_b, vec_b = krum(permuted, krum_c)
            scores = krum_scores(models, krum_c)
            if np.sum(scores == scores.min()) == 1:
                # unique winner: the index maps through the permutation
                assert perm[idx_b] == idx_a
                assert np.allclose(vec_a, vec_b, atol=1e-12)
            else:
                # exact score ties (mutual nearest neighbours): both picks are minimal
                assert scores[perm[idx_b]] == scores[idx_a] == scores.min()


def gram_sized_models(rng) -> np.ndarray:
    """64 x 4097 models: m*m*d just over the limit above which pairwise_sq_dists uses the Gram path."""
    m, d = 64, 4097
    assert (m - 1) * (m - 1) * d <= _DIRECT_PAIRWISE_LIMIT < m * m * d
    return rng.standard_normal((m, d))


class TestPairwiseDistances:
    def test_direct_and_gram_paths_agree(self):
        rng = RngStream(7, "pw").generator()
        models = gram_sized_models(rng)
        gram = pairwise_sq_dists(models)
        direct = np.array([np.sum((models - row) ** 2, axis=1) for row in models])
        assert np.allclose(gram, direct, rtol=1e-9, atol=1e-9)
        assert np.all(gram >= 0)
        assert np.allclose(np.diag(gram), 0.0)

    def test_gram_path_and_krum_match_the_oracle(self):
        models = gram_sized_models(RngStream(8, "pw").generator())
        # a duplicated pair far from the rest: its Gram distance cancels to about 0 and must not go negative
        models[5] = models[3] = models[3] + 10.0
        gram = pairwise_sq_dists(models)
        rows = models.tolist()
        expected = np.zeros(gram.shape)
        for i, j in zip(*np.triu_indices(len(rows), 1)):
            expected[i, j] = expected[j, i] = sq_dist(rows[i], rows[j])
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 0.0)
        assert gram[3, 5] >= 0.0
        assert np.allclose(gram, expected, rtol=1e-9, atol=1e-9 * expected.max())
        chosen, selected = krum(models, 6)
        best, oracle_selected = oracle_krum(rows, 6)
        assert chosen == best
        assert selected.tolist() == oracle_selected


class TestAggregateDispatch:
    def test_dispatch_matches_rules(self):
        rng = RngStream(8, "disp").generator()
        models = rng.standard_normal((7, 3))
        assert np.array_equal(aggregate(AggregatorSpec("mean"), models), mean(models))
        assert np.array_equal(aggregate(AggregatorSpec("median"), models), median(models))
        spec = AggregatorSpec("trimmed_mean", trim_count=2)
        assert np.array_equal(aggregate(spec, models), trimmed_mean(models, 2))
        spec = AggregatorSpec("krum", assumed_compromised=2)
        assert np.array_equal(aggregate(spec, models), krum(models, 2)[1])
        spec = AggregatorSpec("bulyan", assumed_compromised=1)  # theta = 7-2 = 5, gamma = 5-2 = 3
        assert np.array_equal(aggregate(spec, models), bulyan(models, 1, 5, 3))

    def test_validation_errors(self):
        models = np.zeros((4, 2))
        with pytest.raises(ValueError):
            aggregate(AggregatorSpec("krum", assumed_compromised=3), models)
        with pytest.raises(ValueError):
            aggregate(AggregatorSpec("trimmed_mean", trim_count=2), models)
        with pytest.raises(ValueError):
            AggregatorSpec("geometric_median")

    @pytest.mark.parametrize("rule", RULES)
    def test_negative_assumed_count_rejected(self, rule):
        # c = -1 would give Krum m-1 neighbours and Bulyan theta = m+2 of m models
        spec = AggregatorSpec(rule, assumed_compromised=-1)
        with pytest.raises(ValueError, match="non-negative"):
            spec.validate(10)
        AggregatorSpec(rule).validate(10)
