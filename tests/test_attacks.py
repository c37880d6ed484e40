import numpy as np
import pytest

from flrlab.aggregation import RULES, krum, pairwise_sq_dists, trimmed_mean
from flrlab.attacks import (
    KNOWLEDGE_MODES,
    OBJECTIVES,
    SHIFT_FLOOR,
    SUPPORT_RADIUS,
    AttackSpec,
    KnowledgeScope,
    attack_gaussian,
    attack_krum,
    attack_trimmed_mean,
    estimate_direction,
    flip_labels,
    krum_shift_upper_bound,
    sample_in_ball,
)
from flrlab.core import RngStream, signed_direction
from flrlab.data import Dataset

from oracles import oracle_krum, oracle_mean, oracle_median, oracle_shift_bound, oracle_trimmed_mean


def full_scope(rng, m=10, c=3, d=4, spread=1.0):
    models = rng.standard_normal((m, d)) * spread
    w_re = rng.standard_normal(d) * 0.5
    return KnowledgeScope("full", models, w_re), c


ORACLE_AGGREGATES = {
    "mean": lambda rows, c: oracle_mean(rows),
    "trimmed_mean": oracle_trimmed_mean,
    "median": lambda rows, c: oracle_median(rows),
    # a Bulyan target is crafted against as Krum
    "krum": lambda rows, c: oracle_krum(rows, c)[1],
    "bulyan": lambda rows, c: oracle_krum(rows, c)[1],
}


def oracle_sign(values, w_received):
    return [1.0 if v >= w else -1.0 for v, w in zip(values, w_received)]


def direction_scope(mode="full", m=10):
    """Random models with the received model just off their mean, so the rules' signs differ; c = 3."""
    rng = RngStream(21, mode).generator()
    models = rng.standard_normal((m, 12))
    return KnowledgeScope(mode, models, models.mean(axis=0) + 0.01 * rng.standard_normal(12)), 3


class TestEstimateDirection:
    @pytest.mark.parametrize("rule", RULES)
    def test_full_gives_the_sign_of_the_targets_oracle(self, rule):
        scope, c = direction_scope()
        expected = oracle_sign(ORACLE_AGGREGATES[rule](scope.models.tolist(), c), scope.w_received.tolist())
        assert estimate_direction(scope, AttackSpec(rule), c).tolist() == expected

    def test_full_targets_expect_different_aggregates(self):
        # the scope tells every target's aggregate apart, so a target mapped to the wrong one fails
        scope, c = direction_scope()
        signs = {rule: tuple(oracle_sign(f(scope.models.tolist(), c), scope.w_received.tolist()))
                 for rule, f in ORACLE_AGGREGATES.items() if rule != "bulyan"}
        assert len(set(signs.values())) == len(signs)

    def test_partial_uses_compromised_mean(self):
        scope, c = direction_scope("partial", m=3)
        expected = oracle_sign(oracle_mean(scope.models.tolist()), scope.w_received.tolist())
        assert expected != oracle_sign(oracle_median(scope.models.tolist()), scope.w_received.tolist())
        for rule in RULES:
            assert estimate_direction(scope, AttackSpec(rule), c).tolist() == expected

    def test_full_tie_gives_plus_one(self):
        w = np.array([0.5, -0.5])
        for mode, count in (("full", 4), ("partial", 1)):
            scope = KnowledgeScope(mode, np.tile(w, (count, 1)), w)
            for rule in RULES:
                assert estimate_direction(scope, AttackSpec(rule), 1).tolist() == [1.0, 1.0]


def shift_bound(candidates, w_received, crafted_count):
    """The bound over the distances attack_krum shares with its search."""
    received_sq = np.sum((w_received - candidates) ** 2, axis=1)
    return krum_shift_upper_bound(pairwise_sq_dists(candidates), received_sq, crafted_count, candidates.shape[1])


class TestShiftUpperBound:
    def test_zero_when_candidates_sit_on_received(self):
        w = np.array([1.0, -2.0, 0.5])
        assert shift_bound(np.tile(w, (5, 1)), w, 2) == 0.0

    def test_matches_direct_formula(self):
        rng = RngStream(11, "bound").generator()
        for _ in range(30):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 6))
            cand = rng.standard_normal((n, d))
            w_re = rng.standard_normal(d)
            crafted = int(rng.integers(1, n - 1))
            ours = shift_bound(cand, w_re, crafted)
            assert ours == pytest.approx(oracle_shift_bound(cand.tolist(), w_re.tolist(), crafted), rel=1e-12)

    def test_homogeneous_in_scale(self):
        rng = RngStream(12, "bound").generator()
        cand = rng.standard_normal((6, 3))
        w_re = rng.standard_normal(3)
        one = shift_bound(cand, w_re, 2)
        two = shift_bound(2 * cand, 2 * w_re, 2)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_rejects_too_many_crafted(self):
        with pytest.raises(ValueError, match="bound undefined"):
            krum_shift_upper_bound(np.zeros((4, 4)), np.zeros(4), 3, 2)

    def test_rejects_fewer_than_three_candidates(self):
        with pytest.raises(ValueError, match="three candidate"):
            krum_shift_upper_bound(np.zeros((2, 2)), np.zeros(2), 0, 2)


def augmentation_scope():
    """Frozen partial-knowledge geometry where a single crafted replica is never
    selected but the search succeeds after padding the evaluation set to 4 copies."""
    rng = RngStream(0, "hunt2").generator()
    c = int(rng.integers(4, 10))
    d = int(rng.integers(2, 6))
    models = rng.standard_normal((c, d)) * rng.uniform(0.5, 2.0, size=(c, 1))
    w_re = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
    return KnowledgeScope("partial", models, w_re), c, rng


def reference_search(scope, spec, c):
    """attack_krum's search, stacking every evaluation set for the Krum oracle:
    (copies, shift, crafted model), or None without a solution."""
    candidates = scope.models[c:] if scope.mode == "full" else scope.models
    plans = [c] if scope.mode == "full" else range(1, c + 1)
    if spec.objective == "deviation":
        direction = np.ones(scope.w_received.shape[0])
    else:
        direction = estimate_direction(scope, spec, c)
    for copies in (a for a in plans if len(candidates) - a - 1 > 0):
        shift = shift_bound(candidates, scope.w_received, copies)
        while shift >= SHIFT_FLOOR:
            crafted = scope.w_received - shift * direction
            if oracle_krum([crafted.tolist()] * copies + candidates.tolist(), copies)[0] < copies:
                return copies, shift, crafted
            shift *= 0.5
    return None


class TestScalarSearch:
    """The search fills the crafted rows from scalars; stacking each evaluation set gives the same answer."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("mode", KNOWLEDGE_MODES)
    def test_matches_stacked_oracle_search(self, mode, objective):
        rng = RngStream(31, f"search/{mode}/{objective}").generator()
        m, c = (10, 3) if mode == "full" else (6, 6)
        scopes = [augmentation_scope()[:2]] if mode == "partial" else []
        for _ in range(20):
            models = rng.standard_normal((m, 4)) * rng.uniform(0.5, 2.0, size=(m, 1))
            scopes.append((KnowledgeScope(mode, models, rng.standard_normal(4) * 0.5), c))
        outcomes = set()
        for scope, c in scopes:
            spec = AttackSpec("krum", objective=objective)
            result = attack_krum(scope, spec, c, RngStream(0, "support").generator())
            expected = reference_search(scope, spec, c)
            if expected is None:
                assert not result.success
            else:
                copies, shift, crafted = expected
                assert (result.crafted_copies, result.shift) == (copies, shift)
                assert np.array_equal(result.models[0], crafted)
            outcomes.add(None if expected is None else expected[0])
        assert len(outcomes) > 1  # successes and failures, or several copy counts

    def test_no_solution_after_halving_to_the_floor(self):
        # a tight cluster far from w: every crafted model near w loses to the cluster
        rng = RngStream(32, "search/floor").generator()
        w_re = np.full(4, 5.0)
        scope = KnowledgeScope("full", 0.01 * rng.standard_normal((10, 4)), w_re)
        assert shift_bound(scope.models[3:], w_re, 3) > 100 * SHIFT_FLOOR
        assert reference_search(scope, AttackSpec("krum"), 3) is None
        result = attack_krum(scope, AttackSpec("krum"), 3, rng)
        assert not result.success and result.shift is None

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rejects_a_non_finite_crafted_model(self):
        # the models are finite but their distances overflow, so the shift bound
        # and the first crafted model are not finite
        models = np.array([[1e300, 0.0], [-1e300, 0.0], [1e300, 1.0], [-1e300, 1.0], [0.0, 1e300]])
        scope = KnowledgeScope("full", models, np.zeros(2))
        with pytest.raises(ValueError, match="NaN or Inf"):
            attack_krum(scope, AttackSpec("krum", objective="deviation"), 1, RngStream(0, "a").generator())

    # the row counts of the matrices built: the candidates' one, after the direction's
    # Krum over all m models in a full-knowledge directed attack (m = 10, c = 3; partial c = 6)
    @pytest.mark.parametrize(
        "mode, objective, expected",
        [("full", "deviation", [7]), ("full", "directed_deviation", [10, 7]), ("partial", "directed_deviation", [6])],
    )
    def test_one_distance_matrix_per_attack(self, monkeypatch, mode, objective, expected):
        from flrlab import aggregation, attacks

        build, calls = aggregation.pairwise_sq_dists, []
        for module in (aggregation, attacks):
            monkeypatch.setattr(module, "pairwise_sq_dists", lambda arr: calls.append(len(arr)) or build(arr))
        if mode == "partial":
            scope, c, rng = augmentation_scope()
        else:
            rng = RngStream(2, "a").generator()
            scope, c = full_scope(rng)
        result = attack_krum(scope, AttackSpec("krum", objective=objective), c, rng)
        assert result.success and calls == expected
        assert mode == "full" or result.crafted_copies == 4  # partial searched four copy plans


class TestAttackKrum:
    def test_no_solution_when_benign_equal_received(self):
        w = np.array([0.3, 0.3])
        models = np.tile(w, (8, 1))
        scope = KnowledgeScope("full", models, w)
        result = attack_krum(scope, AttackSpec("krum"), 2, RngStream(0, "a").generator())
        assert not result.success
        assert result.models is None and result.shift is None

    def test_full_knowledge_success_properties(self):
        rng = RngStream(1, "a").generator()
        successes = 0
        for _ in range(100):
            scope, c = full_scope(rng)
            result = attack_krum(scope, AttackSpec("krum"), c, rng)
            if not result.success:
                continue
            successes += 1
            benign = scope.models[c:]
            # the accepted shift never exceeds the provable bound
            bound = shift_bound(benign, scope.w_received, c)
            assert result.shift <= bound + 1e-12
            # self-check: Krum over the evaluation set selects the crafted model
            eval_set = np.vstack([np.tile(result.models[0], (c, 1)), benign])
            chosen, vector = krum(eval_set, c)
            assert chosen < c
            assert np.array_equal(vector, result.models[0])
            # support models stay inside the radius ball
            for i in range(1, c):
                assert np.linalg.norm(result.models[i] - result.models[0]) <= SUPPORT_RADIUS
        assert successes > 50  # random geometry admits the attack most of the time

    def test_crafted_model_moves_against_direction(self):
        rng = RngStream(2, "a").generator()
        scope, c = full_scope(rng)
        result = attack_krum(scope, AttackSpec("krum"), c, rng)
        assert result.success
        _, before = krum(scope.models, c)
        direction = signed_direction(before, scope.w_received)
        offset = result.models[0] - scope.w_received
        assert np.allclose(offset, -result.shift * direction, atol=1e-12)

    def test_partial_knowledge_success_and_self_check(self):
        rng = RngStream(3, "a").generator()
        successes = 0
        for _ in range(50):
            models = rng.standard_normal((6, 4))
            w_re = rng.standard_normal(4) * 0.3
            scope = KnowledgeScope("partial", models, w_re)
            result = attack_krum(scope, AttackSpec("krum"), 6, rng)
            if not result.success:
                continue
            successes += 1
            copies = result.crafted_copies
            assert 1 <= copies <= 6
            eval_set = np.vstack([np.tile(result.models[0], (copies, 1)), models])
            chosen, _ = krum(eval_set, copies)
            assert chosen < copies
        assert successes > 25

    def test_partial_knowledge_augmentation_adds_copies(self):
        scope, c, rng = augmentation_scope()
        models = scope.models
        result = attack_krum(scope, AttackSpec("krum"), c, rng)
        assert result.success
        assert result.crafted_copies == 4
        assert result.shift == pytest.approx(0.208047, abs=1e-5)
        eval_set = np.vstack([np.tile(result.models[0], (result.crafted_copies, 1)), models])
        chosen, _ = krum(eval_set, result.crafted_copies)
        assert chosen < result.crafted_copies

    def test_partial_with_too_few_devices_signals_failure(self):
        rng = RngStream(4, "a").generator()
        models = rng.standard_normal((2, 3))
        scope = KnowledgeScope("partial", models, np.zeros(3))
        result = attack_krum(scope, AttackSpec("krum"), 2, rng)
        assert not result.success

    def test_full_with_too_few_benign_signals_failure(self):
        # 3 benign candidates leave the shift bound undefined for c = 3 copies
        rng = RngStream(4, "b").generator()
        scope = KnowledgeScope("full", rng.standard_normal((6, 3)), np.zeros(3))
        result = attack_krum(scope, AttackSpec("krum"), 3, rng)
        assert not result.success and result.crafted_copies == 0

    def test_deviation_objective_uses_unit_shift(self):
        rng = RngStream(5, "a").generator()
        scope, c = full_scope(rng)
        spec = AttackSpec("krum", objective="deviation")
        result = attack_krum(scope, spec, c, rng)
        if result.success:
            offset = result.models[0] - scope.w_received
            assert np.allclose(offset, -result.shift * np.ones_like(offset), atol=1e-12)

    def test_seeded_reproducibility(self):
        scope, c = full_scope(RngStream(6, "a").generator())
        one = attack_krum(scope, AttackSpec("krum"), c, RngStream(7, "a").generator())
        two = attack_krum(scope, AttackSpec("krum"), c, RngStream(7, "a").generator())
        assert one.shift == two.shift
        assert np.array_equal(one.models, two.models)


def full_tm_scope(benign_rows, compromised_rows, w_re=None):
    models = np.vstack([compromised_rows, benign_rows])
    w = np.zeros(models.shape[1]) if w_re is None else w_re
    return KnowledgeScope("full", models, w)


class TestAttackTrimmedMean:
    def test_full_knowledge_interval_above_max(self):
        benign = np.array([[1.0], [2.0], [3.0]])
        scope = full_tm_scope(benign, np.zeros((2, 1)))
        crafted = attack_trimmed_mean(scope, AttackSpec("trimmed_mean"), 2, np.array([-1.0]), RngStream(9, "t").generator())
        assert crafted.shape == (2, 1)
        assert np.all(crafted >= 3.0) and np.all(crafted <= 6.0)

    def test_full_knowledge_non_positive_max(self):
        benign = np.array([[-4.0], [-1.0]])
        scope = full_tm_scope(benign, np.zeros((1, 1)))
        crafted = attack_trimmed_mean(
            scope, AttackSpec("trimmed_mean"), 1, np.array([-1.0]), RngStream(10, "t").generator()
        )
        assert np.all(crafted >= -1.0) and np.all(crafted <= -0.5)

    def test_full_knowledge_below_min_branches(self):
        rng = RngStream(11, "t").generator()
        benign = np.array([[2.0, -3.0], [5.0, -1.0]])
        scope = full_tm_scope(benign, np.zeros((1, 2)))
        crafted = attack_trimmed_mean(scope, AttackSpec("trimmed_mean"), 1, np.array([1.0, 1.0]), rng)
        # w_min = 2 > 0 -> [1, 2]; w_min = -3 <= 0 -> [-6, -3]
        assert 1.0 <= crafted[0, 0] <= 2.0
        assert -6.0 <= crafted[0, 1] <= -3.0

    def test_partial_knowledge_interval(self):
        comp = np.array([[1.0], [2.0], [3.0]])
        scope = KnowledgeScope("partial", comp, np.zeros(1))
        crafted = attack_trimmed_mean(
            scope, AttackSpec("trimmed_mean"), 3, np.array([-1.0]), RngStream(12, "t").generator()
        )
        sigma = np.sqrt(2.0 / 3.0)
        assert np.all(crafted >= 2.0 + 3 * sigma - 1e-12)
        assert np.all(crafted <= 2.0 + 4 * sigma + 1e-12)
        # frozen arithmetic: [4.449, 5.266] to three decimals
        assert 2.0 + 3 * sigma == pytest.approx(4.449, abs=5e-4)
        assert 2.0 + 4 * sigma == pytest.approx(5.266, abs=5e-4)

    def test_partial_positive_direction_interval(self):
        comp = np.array([[1.0], [2.0], [3.0]])
        scope = KnowledgeScope("partial", comp, np.zeros(1))
        crafted = attack_trimmed_mean(
            scope, AttackSpec("trimmed_mean"), 3, np.array([1.0]), RngStream(13, "t").generator()
        )
        sigma = np.sqrt(2.0 / 3.0)
        assert np.all(crafted >= 2.0 - 4 * sigma - 1e-12)
        assert np.all(crafted <= 2.0 - 3 * sigma + 1e-12)

    def test_directedness_with_trim_equal_to_compromised(self):
        rng = RngStream(14, "t").generator()
        for _ in range(60):
            m, c, d = 9, 2, 3
            honest = rng.standard_normal((m, d))
            w_re = rng.standard_normal(d)
            scope = KnowledgeScope("full", honest, w_re)
            before = trimmed_mean(honest, c)
            direction = signed_direction(before, w_re)
            crafted = attack_trimmed_mean(scope, AttackSpec("trimmed_mean"), c, direction, rng)
            attacked = honest.copy()
            attacked[:c] = crafted
            after = trimmed_mean(attacked, c)
            moved = after - before
            # the aggregate never moves with the honest direction
            assert np.all((np.sign(moved) == -direction) | (moved == 0))

    def test_deviation_objective_picks_larger_displacement(self):
        # The honest median sits at the compromised value 10.4; replacing it
        # with anything above the benign max only moves the median to 10.5
        # (gap 0.1) while pushing below the min moves it to 10 (gap 0.4), so
        # the deviation goal must sample the below-minimum interval [1, 2].
        benign = np.array([[10.0], [10.5], [11.0], [2.0]])
        scope = full_tm_scope(benign, np.array([[10.4]]))
        spec = AttackSpec("median", objective="deviation")
        crafted = attack_trimmed_mean(scope, spec, 1, None, RngStream(15, "t").generator())
        assert 1.0 <= crafted[0, 0] <= 2.0

    def test_partial_deviation_rejected(self):
        scope = KnowledgeScope("partial", np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(ValueError):
            attack_trimmed_mean(
                scope, AttackSpec("median", objective="deviation"), 2, None, RngStream(0, "t").generator()
            )


class TestAttackGaussian:
    def test_identical_models_reproduced(self):
        v = np.array([1.0, -2.0])
        crafted = attack_gaussian(np.tile(v, (6, 1)), 2, RngStream(16, "g").generator())
        assert np.allclose(crafted, v, atol=0)

    def test_seeded_reproducibility(self):
        rng_models = RngStream(17, "g").generator()
        models = rng_models.standard_normal((8, 3))
        a = attack_gaussian(models, 3, RngStream(18, "g").generator())
        b = attack_gaussian(models, 3, RngStream(18, "g").generator())
        assert np.array_equal(a, b)

    def test_moments_match_fit(self):
        rng = RngStream(19, "g").generator()
        models = rng.standard_normal((10, 2)) * 3.0 + 1.0
        mu = models.mean(axis=0)
        sigma = models.std(axis=0)
        draws = np.vstack([attack_gaussian(models, 1, rng) for _ in range(10000)])
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 0.02 * np.abs(mu) + 0.1 * sigma)
        assert np.all(np.abs(draws.std(axis=0) - sigma) < 0.02 * sigma + 0.05)


class TestSampleInBall:
    def test_within_radius(self):
        rng = RngStream(20, "b").generator()
        center = rng.standard_normal(6)
        for _ in range(200):
            point = sample_in_ball(center, 0.25, rng)
            assert np.linalg.norm(point - center) <= 0.25


class TestFlipLabels:
    def make(self, labels, L=10):
        return Dataset(np.zeros((len(labels), 2)), np.array(labels), L)

    def test_examples(self):
        flipped = flip_labels(self.make([3, 0, 9]))
        assert flipped.labels.tolist() == [6, 9, 0]

    def test_involution(self):
        ds = self.make([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        twice = flip_labels(flip_labels(ds))
        assert np.array_equal(twice.labels, ds.labels)
        assert twice.num_classes == ds.num_classes

    def test_features_untouched(self):
        ds = Dataset(np.arange(6, dtype=float).reshape(3, 2), np.array([0, 1, 2]), 3)
        flipped = flip_labels(ds)
        assert np.array_equal(flipped.features, ds.features)
