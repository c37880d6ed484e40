import numpy as np
import pytest

from flrlab.aggregation import (
    _DIRECT_PAIRWISE_LIMIT,
    RULES,
    AggregatorSpec,
    aggregate,
    blockwise_sq_dists,
    bulyan,
    bulyan_counts,
    bulyan_within,
    krum,
    krum_select,
    mean,
    median,
    neighbor_score_sums,
    pairwise_sq_dists,
    row_sq_norms,
    trimmed_mean,
)
from flrlab.core import RngStream
from flrlab.defenses import _loo_aggregates

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_an_overflowing_mean_is_rejected(self):
        # the mean's own finiteness check stands in for a scan of the models
        with pytest.raises(ValueError, match="overflows"):
            mean(np.array([[1e308, 0.0], [1e308, 1.0]]))


def krum_scores(models, assumed_compromised):
    """Each model's Krum score: the sum of its m-c-2 smallest squared distances to the others."""
    return neighbor_score_sums(pairwise_sq_dists(models), len(models) - assumed_compromised - 2)


class TestKrum:
    def test_identical_models_score_zero(self):
        models = np.tile(np.array([2.0, 3.0]), (5, 1))
        assert np.allclose(krum_scores(models, 1), 0.0)
        assert oracle_krum_scores(models.tolist(), 1) == [0.0] * 5

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
        assert np.array_equal(scores, oracle_krum_scores(models.tolist(), 1))
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
        assert np.allclose(direct, oracle_krum_scores(models.tolist(), 1), rtol=0, atol=1e-12)

    def test_m_too_small(self):
        with pytest.raises(ValueError, match="c\\+3"):
            krum(np.zeros((4, 2)), 2)
        with pytest.raises(ValueError, match="c\\+3"):
            krum(np.zeros((4, 2)), 2, pairwise_sq_dists(np.zeros((4, 2))))


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


def direct_sized_models(rng) -> np.ndarray:
    """30 x 50 models: m*m*d well under the limit, so every build takes the direct path."""
    return rng.standard_normal((30, 50))


MODEL_SETS = {"direct": direct_sized_models, "gram": gram_sized_models}


class TestBlockwiseDistances:
    """The one distance matrix of an iteration, built in two row groups, against fresh builds."""

    SPLIT = 7  # the head rows, as the compromised rows come first in a model matrix

    def built(self, path):
        models = MODEL_SETS[path](RngStream(9, f"blocks/{path}").generator())
        return models, blockwise_sq_dists(models, self.SPLIT, row_sq_norms(models))

    @pytest.mark.parametrize("path", sorted(MODEL_SETS))
    def test_tail_block_is_a_build_of_its_rows(self, path):
        models, sq = self.built(path)
        assert np.array_equal(sq[self.SPLIT :, self.SPLIT :], pairwise_sq_dists(models[self.SPLIT :]))

    @pytest.mark.parametrize("path", sorted(MODEL_SETS))
    def test_head_rows_are_rows_of_the_whole_matrix(self, path):
        models, sq = self.built(path)
        fresh = pairwise_sq_dists(models)
        assert np.array_equal(sq, sq.T) and np.all(np.diag(sq) == 0.0)
        if path == "direct":
            # every block, and the head block as a build of its own rows
            assert np.array_equal(sq, fresh)
            assert np.array_equal(sq[: self.SPLIT, : self.SPLIT], pairwise_sq_dists(models[: self.SPLIT]))
            assert np.array_equal(pairwise_sq_dists(models, self.SPLIT), fresh[: self.SPLIT])
        else:
            assert not np.array_equal(sq, fresh)  # the Gram products round differently
            assert np.allclose(sq, fresh, rtol=1e-9, atol=1e-9)
            assert np.allclose(sq[: self.SPLIT, : self.SPLIT], pairwise_sq_dists(models[: self.SPLIT]), rtol=1e-9)

    @pytest.mark.parametrize("path", sorted(MODEL_SETS))
    def test_rebuilding_the_head_equals_a_build_of_the_new_models(self, path):
        models, sq = self.built(path)
        models[: self.SPLIT] = RngStream(10, "blocks/new").generator().standard_normal((self.SPLIT, models.shape[1]))
        norms = row_sq_norms(models)
        rebuilt = blockwise_sq_dists(models, self.SPLIT, norms, sq)
        assert rebuilt is sq
        assert np.array_equal(sq, blockwise_sq_dists(models, self.SPLIT, norms))
        if path == "direct":
            assert np.array_equal(sq, pairwise_sq_dists(models))

    @pytest.mark.parametrize("path", sorted(MODEL_SETS))
    def test_split_zero_is_one_whole_build(self, path):
        models = MODEL_SETS[path](RngStream(11, "blocks").generator())
        assert np.array_equal(blockwise_sq_dists(models, 0, row_sq_norms(models)), pairwise_sq_dists(models))

    @pytest.mark.parametrize("path", sorted(MODEL_SETS))
    def test_krum_family_picks_match_fresh_builds(self, path):
        models, sq = self.built(path)
        c = 5
        assert krum(models, c, sq)[0] == krum(models, c)[0]
        krum_spec = AggregatorSpec("krum", assumed_compromised=c)
        given, fresh = _loo_aggregates(models, krum_spec, sq), _loo_aggregates(models, krum_spec)
        assert np.array_equal(given[0][given[1]], fresh[0][fresh[1]])
        # the final Krum and Bulyan over survivors read their block of the matrix
        rows = np.delete(np.arange(len(models)), [1, 4, 12])
        for spec in (krum_spec, AggregatorSpec("bulyan", assumed_compromised=c)):
            assert np.array_equal(aggregate(spec, models, rows, sq), aggregate(spec, models[rows]))
        theta, gamma = bulyan_counts(len(rows), c)
        assert np.array_equal(bulyan_within(models, sq, rows, c, theta, gamma), bulyan(models[rows], c, theta, gamma))

    def test_given_norms_replace_the_scan(self, monkeypatch):
        from flrlab import aggregation

        models = direct_sized_models(RngStream(12, "blocks").generator())
        check, scans = aggregation.as_model_matrix, []
        monkeypatch.setattr(aggregation, "as_model_matrix", lambda arr, finite=True: scans.append(finite) or check(arr, finite))
        blockwise_sq_dists(models, self.SPLIT, row_sq_norms(models))
        assert scans and not any(scans)  # shape checks only
        models[3, 2] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            blockwise_sq_dists(models, self.SPLIT, row_sq_norms(models))


class TestRowSubsets:
    """aggregate over a row index equals the rule over those rows gathered."""

    @pytest.mark.parametrize(
        "spec",
        [AggregatorSpec("mean"), AggregatorSpec("trimmed_mean", trim_count=2), AggregatorSpec("median"),
         AggregatorSpec("krum", assumed_compromised=2), AggregatorSpec("bulyan", assumed_compromised=1)],
        ids=lambda spec: spec.rule,
    )
    def test_rows_match_the_gathered_rows(self, spec):
        models = RngStream(13, "rows").generator().standard_normal((11, 4))
        rows = np.array([0, 2, 3, 5, 6, 7, 9, 10])
        before = models.copy()
        assert np.array_equal(aggregate(spec, models, rows), aggregate(spec, models[rows]))
        assert np.array_equal(aggregate(spec, models, rows, pairwise_sq_dists(models)), aggregate(spec, models[rows]))
        assert np.array_equal(models, before)  # the window rules sort their own copy

    def test_window_rules_leave_their_input_unsorted(self):
        models = RngStream(14, "rows").generator().standard_normal((7, 3))
        before = models.copy()
        trimmed_mean(models, 2)
        median(models)
        assert np.array_equal(models, before)


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
