from dataclasses import replace

import numpy as np
import pytest

from flrlab.aggregation import AggregatorSpec, aggregate, bulyan, krum
from flrlab.core import RngStream
from flrlab.data import Dataset, synth_blobs
from flrlab.defenses import (
    _loo_aggregates,
    apply_defense,
    impact_scores,
)
from flrlab.models import ModelSpec, error_rate, loss, shard_objective

from oracles import oracle_largest, oracle_leave_one_out_mean, oracle_mean, oracle_median, oracle_trimmed_mean


@pytest.fixture(scope="module")
def validation():
    return synth_blobs(2, 40, 2, 0.15, RngStream(100, "val").generator())


@pytest.fixture(scope="module")
def model_spec():
    return ModelSpec("lr", 2, 2)


def mean_spec(c: int) -> AggregatorSpec:
    """The mean rule with c assumed compromised: the count the defenses remove."""
    return AggregatorSpec("mean", assumed_compromised=c)


def trained_models(validation, model_spec, count=6, noise=0.2, seed=5):
    """A population of sensible local models around one trained solution."""
    rng = RngStream(seed, "defense-models").generator()
    obj = shard_objective(model_spec, validation)
    w = np.zeros(model_spec.dim)
    from flrlab.models import gradient

    for _ in range(300):
        w -= 0.5 * gradient(obj, w)
    return w + noise * rng.standard_normal((count, model_spec.dim))


def loo_rows(models, spec):
    """The m+1 leave-one-out aggregates in order: of all models, then without each."""
    aggregates, index = _loo_aggregates(models, spec)
    return aggregates[index]


SMALLEST_M = {"mean": 2, "trimmed_mean": 6, "median": 2, "krum": 6, "bulyan": 6}  # the m-1 models must be legal


def fast_path_case(case, validation, model_spec, rule="krum"):
    """Models, model spec and validation set of one leave-one-out case."""
    rng = RngStream(7, "d").generator()
    if case == "gram":
        # 10 models of d = 168002 (LR) or 168008 (MLP): m*m*d > 2**24, so the defense's matrix
        # takes the Gram path, while each rerun's 9 models (81*d < 2**24) take the direct one
        gram_spec = ModelSpec(model_spec.kind, 84_000, 2, hidden=2)
        gram_validation = synth_blobs(2, 10, 84_000, 0.15, RngStream(100, "val-gram").generator())
        return rng.standard_normal((10, gram_spec.dim)), gram_spec, gram_validation
    models = rng.standard_normal((SMALLEST_M[rule] if case == "smallest-m" else 8, model_spec.dim))
    if case == "duplicates":
        # rows 1, 4 and 6 are one model (Krum's pick) and 5 repeats 2: leaving out
        # 4, 5 or 6 leaves a lower-index duplicate in the subset
        models[[4, 6]] = models[1]
        models[5] = models[2]
    if case == "identical":
        models[:] = models[0]  # every score ties, so the lowest index wins
    return models, model_spec, validation


class TestImpactScores:
    def test_identical_models_zero_impact(self, validation, model_spec):
        models = np.tile(np.linspace(-1, 1, model_spec.dim), (5, 1))
        impacts = impact_scores(models, AggregatorSpec("mean"), model_spec, validation)
        assert impacts.shape == (5, 2)
        assert np.all(impacts[:, 0] == 0) and np.all(np.abs(impacts[:, 1]) < 1e-12)

    def test_mean_rule_matches_closed_form(self, validation, model_spec):
        rng = RngStream(6, "d").generator()
        models = rng.standard_normal((7, model_spec.dim))
        impacts = impact_scores(models, AggregatorSpec("mean"), model_spec, validation)
        loo = oracle_leave_one_out_mean(models.tolist())
        obj = shard_objective(model_spec, validation)
        full_mean = models.mean(axis=0)
        for (error_impact, loss_impact), without in zip(impacts, loo):
            expect_err = error_rate(model_spec, full_mean, validation) - error_rate(
                model_spec, np.asarray(without), validation
            )
            expect_loss = loss(obj, full_mean) - loss(obj, np.asarray(without))
            assert error_impact == pytest.approx(expect_err, abs=1e-12)
            assert loss_impact == pytest.approx(expect_loss, abs=1e-12)

    @pytest.mark.parametrize(
        "rule, c, case",
        [
            ("krum", 2, "random"),
            ("bulyan", 1, "random"),
            ("krum", 2, "duplicates"),
            ("krum", 2, "identical"),
            ("krum", 2, "smallest-m"),
            ("krum", 2, "gram"),
        ],
        ids=["krum-2", "bulyan-1", "krum-duplicates", "krum-identical", "krum-smallest-m", "krum-gram"],
    )
    def test_krum_fast_path_matches_rule_rerun(self, validation, model_spec, monkeypatch, rule, c, case):
        from flrlab import aggregation, defenses

        models, model_spec, validation = fast_path_case(case, validation, model_spec)
        spec = AggregatorSpec(rule, assumed_compromised=c)
        original, calls = aggregation.pairwise_sq_dists, []

        def counted(arr):
            calls.append(len(arr))
            return original(arr)

        matrix = original(models)
        monkeypatch.setattr(aggregation, "pairwise_sq_dists", counted)
        monkeypatch.setattr(defenses, "pairwise_sq_dists", counted)
        impacts = impact_scores(models, spec, model_spec, validation)
        assert calls == [len(models)]  # one distance matrix serves the full aggregate and every subset
        # the harness's matrix of the models replaces that build
        assert np.array_equal(impact_scores(models, spec, model_spec, validation, matrix), impacts)
        assert calls == [len(models)]
        monkeypatch.undo()

        obj = shard_objective(model_spec, validation)
        full = aggregate(spec, models)
        for i, (error_impact, loss_impact) in enumerate(impacts):
            without = aggregate(spec, np.delete(models, i, axis=0))
            assert error_impact == error_rate(model_spec, full, validation) - error_rate(model_spec, without, validation)
            assert loss_impact == loss(obj, full) - loss(obj, without)

    def test_krum_impacts_select_without_krum_select(self, validation, model_spec, monkeypatch):
        from flrlab import aggregation, defenses

        models = RngStream(7, "d").generator().standard_normal((8, model_spec.dim))
        build, select = aggregation.pairwise_sq_dists, aggregation.krum_select
        builds, selects = [], []
        for module in (aggregation, defenses):
            monkeypatch.setattr(module, "pairwise_sq_dists", lambda *args: builds.append(1) or build(*args))
            monkeypatch.setattr(module, "krum_select", lambda *args: selects.append(1) or select(*args), raising=False)
        spec = AggregatorSpec("krum", assumed_compromised=2)
        impact_scores(models, spec, model_spec, validation)
        assert len(builds) == 1 and not selects  # every selection comes from one sorted matrix
        impact_scores(models, spec, model_spec, validation, build(models))
        assert len(builds) == 1 and not selects  # a given matrix is only read

    def test_window_rules_make_no_aggregate_call(self, validation, model_spec, monkeypatch):
        from flrlab import defenses

        rng = RngStream(12, "d").generator()
        models = rng.standard_normal((9, model_spec.dim))
        original, calls = defenses.aggregate, []

        def counted(spec, arr):
            calls.append(len(arr))
            return original(spec, arr)

        monkeypatch.setattr(defenses, "aggregate", counted)
        for spec in (AggregatorSpec("trimmed_mean", trim_count=2), AggregatorSpec("median"), AggregatorSpec("mean")):
            calls.clear()
            impact_scores(models, spec, model_spec, validation)
            assert calls == []  # the full and every leave-one-out aggregate come from one column sort

    def test_permutation_equivariant(self, validation, model_spec):
        rng = RngStream(8, "d").generator()
        models = rng.standard_normal((6, model_spec.dim))
        perm = rng.permutation(6)
        direct = impact_scores(models, AggregatorSpec("mean"), model_spec, validation)
        permuted = impact_scores(models[perm], AggregatorSpec("mean"), model_spec, validation)
        assert np.allclose(permuted, direct[perm], rtol=0, atol=1e-12)

    def test_needs_two_models(self, validation, model_spec):
        with pytest.raises(ValueError):
            impact_scores(np.zeros((1, model_spec.dim)), AggregatorSpec("mean"), model_spec, validation)


    @pytest.mark.parametrize(
        "m, c, d",
        [(6, 1, 5), (8, 1, 5), (10, 2, 5), (12, 2, 5), (10, 2, 170_000)],
        ids=["6-1", "8-1", "10-2", "12-2", "10-2-gram"],
    )
    def test_bulyan_subsets_take_their_own_counts(self, m, c, d):
        # every leave-one-out set has m-1 models: theta = m-1-2c, gamma = theta-2c.
        # At m*m*d > 2**24 the distances come from the Gram path, where a
        # sub-block of the full matrix need not equal the subset's own matrix.
        models = RngStream(m, "loo-bulyan").generator().standard_normal((m, d))
        loo = loo_rows(models, AggregatorSpec("bulyan", assumed_compromised=c))
        assert np.array_equal(loo[0], bulyan(models, c, m - 2 * c, m - 4 * c))
        theta = m - 1 - 2 * c
        for i, without in enumerate(loo[1:]):
            assert np.array_equal(without, bulyan(np.delete(models, i, 0), c, theta, theta - 2 * c))


ORACLE_RULES = {
    "mean": AggregatorSpec("mean"),
    "trimmed_mean": AggregatorSpec("trimmed_mean", trim_count=2),
    "median": AggregatorSpec("median"),
    "krum": AggregatorSpec("krum", assumed_compromised=2),
    "bulyan": AggregatorSpec("bulyan", assumed_compromised=1),
}
STACKED_CASES = [(rule, case) for case in ("random", "smallest-m") for rule in ORACLE_RULES] + [
    ("krum", "duplicates"),
    ("krum", "identical"),
    ("krum", "gram"),
]


def reference_impacts(models, agg_spec, model_spec, validation):
    """The impacts from scoring each leave-one-out aggregate on its own."""
    aggregates, index = _loo_aggregates(np.asarray(models, dtype=np.float64), agg_spec)
    obj = shard_objective(model_spec, validation)
    scores = np.array([(error_rate(model_spec, aggregates[k], validation), loss(obj, aggregates[k])) for k in index])
    return scores[0] - scores[1:]


def krum_picks(models, c):
    """The model index Krum picks from all models, then from the set without each model."""
    picks = [krum(models, c)[0]]
    for i in range(len(models)):
        j = krum(np.delete(models, i, axis=0), c)[0]
        picks.append(j + (j >= i))
    return picks


class TestStackedScoring:
    """All leave-one-out aggregates scored in one forward pass, bit-equal to scoring each."""

    @pytest.mark.parametrize("kind", ["lr", "mlp"])
    @pytest.mark.parametrize("rule, case", STACKED_CASES, ids=[f"{r}-{c}" for r, c in STACKED_CASES])
    def test_matches_one_score_per_aggregate(self, validation, kind, rule, case):
        models, model_spec, validation = fast_path_case(case, validation, ModelSpec(kind, 2, 2, hidden=4), rule)
        impacts = impact_scores(models, ORACLE_RULES[rule], model_spec, validation)
        assert np.array_equal(impacts, reference_impacts(models, ORACLE_RULES[rule], model_spec, validation))

    @pytest.mark.parametrize("rule", ["mean", "trimmed_mean", "median"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_window_sum_is_rejected(self, validation, model_spec, rule):
        # finite rows near +-1e308 whose window sums overflow to +-inf
        rng = RngStream(22, "stacked/overflow").generator()
        models = 1e308 * (1 - 0.01 * rng.random((9, model_spec.dim))) * np.array([1, -1, 1, -1, 1, -1])
        with pytest.raises(ValueError, match="NaN or Inf"):
            impact_scores(models, ORACLE_RULES[rule], model_spec, validation)

    @pytest.mark.parametrize("rule", sorted(ORACLE_RULES))
    def test_one_forward_pass_and_no_single_model_scoring(self, validation, model_spec, rule, monkeypatch):
        from flrlab import defenses, models as models_module

        models = fast_path_case("random", validation, model_spec, rule)[0]
        forward, passes, singles = models_module._forward, [], []

        def counted_forward(layers, x):
            passes.append(layers[0][0].shape[:-2])  # the stack's leading axis
            return forward(layers, x)

        monkeypatch.setattr(models_module, "_forward", counted_forward)
        monkeypatch.setattr(defenses, "error_rate", lambda *args: singles.append(args))
        monkeypatch.setattr(defenses, "loss", lambda *args: singles.append(args))
        impact_scores(models, ORACLE_RULES[rule], model_spec, validation)
        assert not singles
        assert len(passes) == 1
        if rule == "krum":  # only the distinct picks are scored
            distinct = len(set(krum_picks(models, 2)))
            assert passes[0][0] <= distinct < len(models) + 1
        else:
            assert passes[0] == (len(models) + 1,)


class TestDefendErr:
    def test_removes_worst_device(self, validation, model_spec):
        models = trained_models(validation, model_spec)
        # an inverted, amplified model flips the mean's predictions; note a
        # constant-shift model would be harmless (softmax shift invariance)
        models[3] = -6.0 * models[0]
        outcome = apply_defense(models, mean_spec(1), model_spec, "err", validation)
        assert outcome.removed == (3,)
        assert outcome.survivors.shape == (5, model_spec.dim)

    def test_survivor_count(self, validation, model_spec):
        models = trained_models(validation, model_spec, count=8)
        for c in (1, 2, 3):
            outcome = apply_defense(models, mean_spec(c), model_spec, "err", validation)
            assert len(outcome.removed) == c
            assert outcome.survivors.shape[0] == 8 - c

    def test_ties_remove_lowest_indices(self, validation, model_spec):
        models = np.tile(np.linspace(0, 1, model_spec.dim), (6, 1))
        outcome = apply_defense(models, mean_spec(2), model_spec, "err", validation)
        assert outcome.removed == (0, 1)

    def test_survivors_are_a_row_index_into_the_models(self, validation, model_spec):
        models = trained_models(validation, model_spec, count=8)
        models[[2, 5]] *= -6.0
        outcome = apply_defense(models, mean_spec(2), model_spec, "err", validation)
        assert outcome.models is models  # no copy of the matrix
        assert outcome.kept.tolist() == [i for i in range(8) if i not in outcome.removed]
        assert np.array_equal(outcome.survivors, np.delete(models, outcome.removed, axis=0))


class TestDefendLfr:
    def test_huge_parameters_removed(self, validation, model_spec):
        models = trained_models(validation, model_spec)
        models[4] = 1e4
        outcome = apply_defense(models, mean_spec(1), model_spec, "lfr", validation)
        assert outcome.removed == (4,)

    def test_identical_models_remove_by_index(self, validation, model_spec):
        models = np.tile(np.linspace(0, 1, model_spec.dim), (6, 1))
        outcome = apply_defense(models, mean_spec(3), model_spec, "lfr", validation)
        assert outcome.removed == (0, 1, 2)


class TestDefendUnion:
    def test_union_of_both_sets(self, validation, model_spec):
        rng = RngStream(9, "d").generator()
        models = trained_models(validation, model_spec, count=9)
        models += 0.05 * rng.standard_normal(models.shape)
        agg = mean_spec(2)
        err_set = set(apply_defense(models, agg, model_spec, "err", validation).removed)
        lfr_set = set(apply_defense(models, agg, model_spec, "lfr", validation).removed)
        outcome = apply_defense(models, agg, model_spec, "union", validation)
        assert set(outcome.removed) == err_set | lfr_set
        assert 2 <= len(outcome.removed) <= 4

    def test_union_survivors_subset_of_each(self, validation, model_spec):
        models = trained_models(validation, model_spec, count=7, seed=11)
        agg = AggregatorSpec("median", assumed_compromised=2)
        union = apply_defense(models, agg, model_spec, "union", validation)
        err = apply_defense(models, agg, model_spec, "err", validation)
        lfr = apply_defense(models, agg, model_spec, "lfr", validation)
        assert set(union.removed) >= set(err.removed)
        assert set(union.removed) >= set(lfr.removed)


class TestApplyDefense:
    def test_unknown_kind_and_empty_validation_set(self, validation, model_spec):
        models = trained_models(validation, model_spec)
        with pytest.raises(ValueError, match="unknown defense kind"):
            apply_defense(models, mean_spec(1), model_spec, "gatekeeper", validation)
        for kind in ("err", "lfr", "union"):
            with pytest.raises(ValueError, match="empty shard"):
                apply_defense(models, mean_spec(1), model_spec, kind, validation.subset([]))

    def test_cannot_remove_everything(self, validation, model_spec):
        models = trained_models(validation, model_spec, count=3)
        with pytest.raises(ValueError):
            apply_defense(models, mean_spec(3), model_spec, "err", validation)

    def test_must_remove_one(self, validation, model_spec):
        models = trained_models(validation, model_spec, count=3)
        with pytest.raises(ValueError):
            apply_defense(models, mean_spec(0), model_spec, "err", validation)

    def test_trimmed_mean_loo_configuration_error(self, validation, model_spec):
        # beta = 2 is fine for 5 models but invalid for the 4-model subsets
        models = trained_models(validation, model_spec, count=5)
        agg = AggregatorSpec("trimmed_mean", trim_count=2)
        with pytest.raises(ValueError):
            impact_scores(models, agg, model_spec, validation)


def window_specs(rng, m):
    """Mean, median and a trimmed mean with a random trim valid for m-1 models."""
    trim = int(rng.integers(0, (m - 2) // 2 + 1))
    return [AggregatorSpec("mean"), AggregatorSpec("median"), AggregatorSpec("trimmed_mean", trim_count=trim)]


def oracle_rule(spec, rows):
    if spec.rule == "mean":
        return oracle_mean(rows)
    if spec.rule == "median":
        return oracle_median(rows)
    return oracle_trimmed_mean(rows, spec.trim_count)


class TestWindowLeaveOneOut:
    """The closed-form leave-one-out windows against rerunning the rule on each subset."""

    # the closed form subtracts one value from a window sum instead of summing the
    # window without it; the largest gap seen on these inputs is 5e-16
    ATOL = 1e-12

    @pytest.mark.parametrize("m", range(3, 41))
    def test_matches_rule_rerun_with_ties(self, m):
        rng = RngStream(m, "loo-windows").generator()
        models = np.round(rng.standard_normal((m, 6)), 1)
        models[:, 0] = 0.5  # a fully tied column
        models[:, 1] = np.round(models[:, 1])  # a column of few distinct values
        for spec in window_specs(rng, m):
            loo = loo_rows(models, spec)
            assert len(loo) == m + 1
            assert np.array_equal(loo[0], aggregate(spec, models))
            for i, without in enumerate(loo[1:]):
                rest = np.delete(models, i, axis=0)
                assert np.allclose(without, aggregate(spec, rest), rtol=0, atol=self.ATOL), (spec, i)
                assert np.allclose(without, oracle_rule(spec, rest.tolist()), rtol=0, atol=self.ATOL), (spec, i)

    def test_far_outliers_add_no_rounding_error(self):
        # 20 rows far below the rest fall outside every window (a prefix-sum
        # difference across them would lose about 1e-7 here)
        rng = RngStream(14, "loo-outliers").generator()
        models = 0.01 * rng.standard_normal((100, 50))
        models[:20] = -1e8 * (1 + rng.random((20, 50)))
        for spec in (AggregatorSpec("median"), AggregatorSpec("trimmed_mean", trim_count=20)):
            for i, without in enumerate(loo_rows(models, spec)[1:]):
                assert np.allclose(without, aggregate(spec, np.delete(models, i, axis=0)), rtol=0, atol=1e-15)

    def test_removal_sets_match_rule_rerun(self, validation, model_spec):
        """ERR, LFR and Union remove the same devices as scoring each rerun subset."""
        rng = RngStream(13, "loo-removals").generator()
        center = trained_models(validation, model_spec, count=1, noise=0.0)[0]
        obj = shard_objective(model_spec, validation)
        for _ in range(300):
            m = int(rng.integers(3, 13))
            count = int(rng.integers(1, m))
            spec = replace(window_specs(rng, m)[int(rng.integers(3))], assumed_compromised=count)
            models = center + rng.uniform(0.1, 3.0) * rng.standard_normal((m, model_spec.dim))
            full = aggregate(spec, models)
            reruns = [aggregate(spec, np.delete(models, i, axis=0)) for i in range(m)]
            by_error = oracle_largest(
                [error_rate(model_spec, full, validation) - error_rate(model_spec, w, validation) for w in reruns], count
            )
            by_loss = oracle_largest([loss(obj, full) - loss(obj, w) for w in reruns], count)
            expected = {"err": by_error, "lfr": by_loss, "union": tuple(sorted(set(by_error) | set(by_loss)))}
            for kind, removed in expected.items():
                outcome = apply_defense(models, spec, model_spec, kind, validation)
                assert outcome.removed == removed, (kind, spec, m, count)
