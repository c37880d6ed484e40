import itertools
import os
import sys
import threading
import weakref
from contextlib import nullcontext
from dataclasses import fields, replace

import numpy as np
import pytest

from flrlab import harness
from flrlab.aggregation import RULES
from flrlab.data import synth_blobs
from flrlab.defenses import DEFENSE_KINDS
from flrlab.harness import (
    ConfigError,
    ExperimentConfig,
    build_datasets,
    config_from_mapping,
    config_to_mapping,
    metrics_csv_lines,
    run_experiment,
)

from test_data import save_csv, traced_peak, write_idx_pair
from test_golden import ATTACKS, BASE

OPTIONAL_FIELDS = [f.name for f in fields(ExperimentConfig) if "None" in f.type]


def set_overlap(monkeypatch, overlap: bool) -> None:
    """Force every trial to evaluate on its helper thread (True) or inline (False), whatever its size."""
    monkeypatch.setattr(harness, "OVERLAP_MIN_VALUES", 0 if overlap else float("inf"))


def nan_for_device_6(monkeypatch) -> None:
    """Make device 6's local model of iteration 1 hold a NaN, on the 10-device federation."""
    real_update = harness.local_update
    calls = []

    def update(objective, weights, *args):
        calls.append(1)
        out = real_update(objective, weights, *args)
        if len(calls) == 10 + 7:  # iteration 1, the seventh of 10 devices
            out[3] = np.nan
        return out

    monkeypatch.setattr(harness, "local_update", update)


class TestValidateModelCounts:
    """Model counts that fail on every iteration are rejected before iteration 0."""

    @pytest.mark.parametrize(
        "rule, per_round",
        [("krum", 10), ("trimmed_mean", 30), ("bulyan", 50)],
    )
    def test_sampled_count_too_small_for_rule(self, rule, per_round):
        config = ExperimentConfig(rule=rule, devices_per_round=per_round)
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("defense", ["err", "lfr", "union"])
    def test_leave_one_out_count_too_small(self, defense):
        # krum needs c+3 = 5 models; the 5 sampled pass, their 4-model LOO subsets do not
        config = ExperimentConfig(num_devices=5, compromised=2, synth_classes=5, rule="krum", defense=defense)
        replace(config, defense="none").validate()
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("defense", ["err", "lfr", "union"])
    def test_removal_leaves_too_few(self, defense):
        # mean tolerates any survivor count but not removing every sampled model
        config = ExperimentConfig(devices_per_round=20, rule="mean", defense=defense)
        with pytest.raises(ConfigError):
            config.validate()

    def test_union_can_leave_k_minus_2c(self):
        # k-c = 7 survivors suit trimmed mean with beta = 3, but Union can leave k-2c = 4
        config = replace(BASE, compromised=3, rule="trimmed_mean", defense="union")
        replace(config, defense="err").validate()
        with pytest.raises(ConfigError):
            config.validate()

    def test_smallest_valid_sample_runs(self):
        config = ExperimentConfig(rule="krum", devices_per_round=23, iterations=2)
        result = run_experiment(config)
        assert len(result.trial_results[0].records) == 2


class TestValidateRejectsMidRunFailures:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(compromised=0, defense="err"),  # the defense would remove c = 0 models
            dict(assumed_compromised=0, defense="lfr"),
            dict(validation_size=0),
            # a sample of 3 can hold only compromised devices
            dict(attack="craft", devices_per_round=3, compromised=4),
            # a sample of 6 can hold 4 compromised devices, too many for the attacker's trimmed mean
            dict(rule="trimmed_mean", assumed_compromised=1, attack="craft", devices_per_round=6, compromised=4),
            dict(rule="median", attack="craft", attack_rule="trimmed_mean", devices_per_round=6, compromised=4),
            dict(rule="mean", attack="craft", knowledge="partial", objective="deviation"),
            dict(rule="median", attack="craft", knowledge="partial", objective="deviation"),
            dict(rule="trimmed_mean", attack="craft", knowledge="partial", objective="deviation"),
            dict(label_bias=0.0),
            dict(label_bias=1.5),
            dict(model="mlp", hidden=0),
            dict(synth_classes=3),  # 10 devices
            # empty synthetic data: synth_blobs would raise a plain ValueError at set-up
            dict(synth_per_class=0),
            dict(synth_test_per_class=0),
            dict(synth_features=0),
            # -0.5 would run with a one-row test set, 1.0 would leave no training rows
            dict(dataset="csv", csv_test_fraction=-0.5),
            dict(dataset="csv", csv_test_fraction=0.0),
            dict(dataset="csv", csv_test_fraction=1.0),
            # a non-finite learning rate fails mid-run on NaN models, a non-finite spread at set-up
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(synth_spread=float("nan")),
            dict(synth_spread=float("inf")),
            dict(synth_spread=float("-inf")),
            # c = -1: Bulyan would fail at iteration 0, Krum would run with m-1 neighbours
            dict(rule="krum", assumed_compromised=-1),
            dict(rule="bulyan", assumed_compromised=-1),
            dict(rule="mean", assumed_compromised=-1),
            # the attack fields are checked whichever attack runs
            dict(objective="bogus"),
            dict(attack_rule="bogus"),
        ],
    )
    def test_rejected(self, fields):
        with pytest.raises(ConfigError):
            replace(BASE, **fields).validate()


def test_grid_configs_are_rejected_or_run_to_the_end():
    """Every rule x defense x attack x sampling x compromised count on 10 devices
    either fails validate() or completes; none fails partway through a run."""
    failures = []
    for rule, defense, attack, per_round, compromised in itertools.product(
        RULES, DEFENSE_KINDS, ATTACKS, (None, 6), (3, 4)
    ):
        config = replace(
            BASE, rule=rule, defense=defense, devices_per_round=per_round, compromised=compromised, **ATTACKS[attack]
        )
        try:
            config.validate()
        except ConfigError:
            continue
        try:
            run_experiment(config)
        except ValueError as exc:
            failures.append(f"{rule}/{defense}/{attack}/{per_round}/{compromised}: {exc}")
    assert failures == []


class TestFileDatasets:
    """The IDX and CSV sources, which the golden grid (synthetic data) never reads."""

    @staticmethod
    def config(tmp_path, dataset, classes=2):
        rng = np.random.default_rng(0)
        if dataset == "csv":
            save_csv(synth_blobs(classes, 75, 8, 0.3, rng), tmp_path / "data.csv")
            return replace(BASE, iterations=2, dataset="csv", csv_path=str(tmp_path / "data.csv"))
        images = rng.integers(0, 256, size=(140, 3, 3), dtype=np.uint8)
        labels = np.arange(140) % classes
        train_images, train_labels = write_idx_pair(tmp_path, images[:100], labels[:100], prefix="train_")
        test_images, test_labels = write_idx_pair(tmp_path, images[100:], labels[100:], prefix="test_")
        return replace(
            BASE,
            iterations=2,
            dataset="idx",
            idx_train_images=str(train_images),
            idx_train_labels=str(train_labels),
            idx_test_images=str(test_images),
            idx_test_labels=str(test_labels),
        )

    @pytest.mark.parametrize(
        "dataset, train_size, test_size",
        [("idx", 100, 40), ("csv", 120, 30)],  # csv: 150 rows, csv_test_fraction 0.2
    )
    def test_split_sizes_and_same_seed_same_bytes(self, tmp_path, dataset, train_size, test_size):
        config = self.config(tmp_path, dataset)
        train, test = build_datasets(config)
        assert (len(train), len(test)) == (train_size, test_size)
        reports = [[], []]
        runs = [run_experiment(config, on_iteration=r.append).trial_results[0] for r in reports]
        assert [len(trial.records) for trial in runs] == [2, 2]
        assert metrics_csv_lines(runs[0].records) == metrics_csv_lines(runs[1].records)
        # the last iterate is the final model
        assert reports[0][-1].new_global.tobytes() == reports[1][-1].new_global.tobytes()

    @pytest.mark.parametrize("dataset", ["idx", "csv"])
    def test_classes_that_do_not_divide_the_devices_are_rejected_at_set_up(self, tmp_path, dataset):
        config = self.config(tmp_path, dataset, classes=3)  # BASE has 10 devices
        config.validate()  # the class count is known only once the file is read
        reports = []
        with pytest.raises(ConfigError, match="3 classes"):
            run_experiment(config, on_iteration=reports.append)
        assert reports == []


def test_an_empty_shard_in_a_later_trial_is_rejected_before_iteration_zero():
    # 30 training instances on 10 devices: trials 0 and 1 give every device some, trial 2 leaves one without
    config = replace(BASE, synth_per_class=15, synth_test_per_class=10, validation_size=5, iterations=2, trials=3)
    reports = []
    with pytest.raises(ConfigError, match="trial 2"):
        run_experiment(config, on_iteration=reports.append)
    assert reports == []


def test_on_iteration_reports_each_iteration(monkeypatch):
    received = []
    real_update = harness.local_update

    def recording_update(objective, weights, *args):
        received.append(weights)
        return real_update(objective, weights, *args)

    monkeypatch.setattr(harness, "local_update", recording_update)
    k = 8
    config = replace(BASE, iterations=4, devices_per_round=k, attack="craft", defense="err")
    reports = []
    trial = run_experiment(config, on_iteration=reports.append).trial_results[0]
    assert [report.iteration for report in reports] == [0, 1, 2, 3]
    # every sampled device of iteration t+1 starts from the model iteration t aggregated
    assert len(received) == 4 * k
    for t, report in enumerate(reports[:-1]):
        assert all(np.array_equal(w, report.new_global) for w in received[(t + 1) * k : (t + 2) * k])
    assert trial.final_test_error == trial.records[-1].test_error
    for report in reports:
        assert len(report.sampled) == report.models.shape[0] == k
        assert len(report.defense.survivors) == k - len(report.defense.removed)


class TestConfigMapping:
    def test_optional_fields_are_covered(self):
        assert set(OPTIONAL_FIELDS) == {
            "devices_per_round",
            "assumed_compromised",
            "attack_rule",
        }

    def test_default_round_trip(self):
        config = ExperimentConfig()
        assert all(getattr(config, name) is None for name in OPTIONAL_FIELDS)
        assert config_from_mapping(config_to_mapping(config)) == config

    def test_every_optional_field_set_round_trips(self):
        values = {name: "krum" if name == "attack_rule" else 7 for name in OPTIONAL_FIELDS}
        config = replace(ExperimentConfig(), learning_rate=0.1, synth_spread=1e-7, dataset="csv", **values)
        assert config_from_mapping(config_to_mapping(config)) == config
        # and back to None over a base that has them set
        cleared = config_from_mapping({name: "none" for name in OPTIONAL_FIELDS}, base=config)
        assert cleared == replace(config, **{name: None for name in OPTIONAL_FIELDS})

    def test_unknown_key_rejected(self):
        for name in ("rounds", "trim_count", "selection_count", "average_count", "support_radius", "interval_factor",
                     "shift_floor", "poison_fraction", "selection", "csv_classes"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                config_from_mapping({name: "3"})


class TestDeviceShards:
    """Every device objective indexes the one training matrix of the process."""

    # 2000 instances x 100 features on 100 devices
    CONFIG = replace(BASE, num_devices=100, compromised=20, synth_classes=10, synth_per_class=200, synth_features=100)

    @pytest.mark.parametrize("attack", ["none", "label_flip"])
    def test_objectives_share_the_training_features(self, attack):
        config = replace(self.CONFIG, attack=attack)
        train, _, shards = harness.set_up(config)
        objectives = harness.device_objectives(config, config.model_spec(train), train, shards[0])
        for dev, (objective, shard) in enumerate(zip(objectives, shards[0])):
            assert np.shares_memory(objective.features, train.features)
            assert np.array_equal(objective.rows, shard)
            flipped = attack == "label_flip" and dev < config.compromised
            expected = train.num_classes - 1 - train.labels if flipped else train.labels
            assert np.array_equal(objective.labels, expected)

    def objective_build_peak(self, attack: str) -> float:
        """The tracemalloc peak of building one trial's objectives, over ``train.features.nbytes``."""
        config = replace(self.CONFIG, attack=attack)
        train, _, shards = harness.set_up(config)
        objectives, peak = traced_peak(lambda: harness.device_objectives(config, config.model_spec(train), train, shards[0]))
        assert len(objectives) == config.num_devices
        return peak / train.features.nbytes

    def test_building_the_objectives_copies_no_training_rows(self):
        # a copied shard per device would allocate train.features.nbytes in all
        assert self.objective_build_peak("none") < 0.05

    def test_building_label_flip_objectives_copies_nothing_full_size(self):
        # the flipped labels are 1%; the finiteness check of their Dataset must not add an (n, q) mask (12.5%)
        assert self.objective_build_peak("label_flip") < 0.05


class TestIterationLifetime:
    """An iteration's model matrices are freed before the next one aggregates, unless a hook keeps them."""

    @pytest.mark.parametrize("rule, attack_site", [("krum", "attack_krum"), ("trimmed_mean", "attack_trimmed_mean")])
    def test_no_report_or_crafted_array_outlives_its_iteration(self, monkeypatch, rule, attack_site):
        self.check(monkeypatch, rule, attack_site)

    @pytest.mark.parametrize("rule, attack_site", [("krum", "attack_krum"), ("trimmed_mean", "attack_trimmed_mean")])
    def test_the_same_holds_with_the_evaluation_on_the_helper_thread(self, monkeypatch, rule, attack_site):
        set_overlap(monkeypatch, True)
        self.check(monkeypatch, rule, attack_site)

    @staticmethod
    def check(monkeypatch, rule, attack_site):
        # the Krum attack finds a solution on every iteration of this config
        config = replace(BASE, num_devices=20, compromised=4, synth_features=50, rule=rule, attack="craft", defense="err")
        real_attack, real_aggregate = getattr(harness, attack_site), harness.aggregate
        refs, dead_at_aggregate = [], []

        def recording_attack(*args):
            result = real_attack(*args)
            crafted = result.models if attack_site == "attack_krum" else result
            refs.append(weakref.ref(crafted))
            return result

        def checking_aggregate(*args):
            # the earlier iterations' reports, and this iteration's crafted rows once copied into its models
            dead_at_aggregate.append([ref() is None for ref in refs])
            return real_aggregate(*args)

        def weak_hook(report):
            # the defense outcome holds the survivors as a row index into report.models
            refs.extend(weakref.ref(obj) for obj in (report.models, report.defense))

        monkeypatch.setattr(harness, attack_site, recording_attack)
        monkeypatch.setattr(harness, "aggregate", checking_aggregate)
        run_experiment(config, on_iteration=weak_hook)
        # iteration t sees its own crafted array and three objects of each earlier iteration
        assert [len(dead) for dead in dead_at_aggregate] == [1, 4, 7]
        assert all(all(dead) for dead in dead_at_aggregate)


class TestModelMatrix:
    """run_iteration writes each sampled device's local update into one (k, d) matrix."""

    @pytest.mark.parametrize("sampled", [None, 6])
    @pytest.mark.parametrize("model", ["lr", "mlp"])
    def test_models_are_the_stacked_local_updates(self, monkeypatch, sampled, model):
        config = replace(BASE, iterations=2, devices_per_round=sampled, model=model, hidden=4)
        updates, real_update = [], harness.local_update

        def recording_update(objective, *args):
            updates.append((objective, real_update(objective, *args)))
            return updates[-1][1]

        monkeypatch.setattr(harness, "local_update", recording_update)
        train, test, shards = harness.set_up(config)
        reports = []
        harness.run_trial(config, train, test, shards[0], 0, on_iteration=reports.append)
        k = config.resolved_devices_per_round()
        assert len(updates) == config.iterations * k  # one call per sampled device
        for t, report in enumerate(reports):
            calls = updates[t * k : (t + 1) * k]
            assert [obj.rows.tolist() for obj, _ in calls] == [shards[0][dev].tolist() for dev in report.sampled]
            assert report.models.dtype == np.float64 and report.models.flags.c_contiguous
            assert np.array_equal(report.models, np.stack([update for _, update in calls]))


class TestNonFiniteModels:
    """A model matrix that holds NaN or Inf, or rows too large to square, stops the run with a
    ConfigError that names the iteration and the devices, where the matrix enters."""

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "fields", [dict(rule="mean"), dict(rule="krum", attack="craft", knowledge="full", defense="union")],
        ids=["mean", "krum-union"],
    )
    def test_huge_spread_stops_at_the_local_models(self, fields):
        # every local model of iteration 0 lies near 1e199: finite, but its squared norm overflows
        config = replace(BASE, synth_spread=1e200, **fields)
        config.validate()
        reports = []
        every_device = r"\[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\]"
        with pytest.raises(ConfigError, match=rf"iteration 0: the local models of devices {every_device}"):
            run_experiment(config, on_iteration=reports.append)
        assert reports == []

    def test_a_nan_local_model_is_named(self, monkeypatch):
        nan_for_device_6(monkeypatch)
        with pytest.raises(ConfigError, match=r"iteration 1: the local models of devices \[6\] hold NaN or Inf"):
            run_experiment(replace(BASE, rule="krum"))

    def test_non_finite_crafted_rows_are_named(self, monkeypatch):
        def infinite_attack(models, present, rng):
            return np.full((present, models.shape[1]), np.inf)

        monkeypatch.setattr(harness, "attack_gaussian", infinite_attack)
        with pytest.raises(ConfigError, match=r"iteration 0: the crafted models of devices \[0, 1\]"):
            run_experiment(replace(BASE, attack="gaussian"))


class TestOneDistanceMatrixPerIteration:
    """The builds of an iteration's Krum matrix, as (rows of models, head rows) of each pairwise_sq_dists call."""

    def builds(self, monkeypatch, config) -> list:
        from flrlab import aggregation, attacks, defenses

        build, calls = aggregation.pairwise_sq_dists, []

        def counted(models, head=None, norms=None):
            calls.append((len(models), head))
            return build(models, head, norms)

        for module in (aggregation, attacks, defenses):
            monkeypatch.setattr(module, "pairwise_sq_dists", counted)
        self.records = run_experiment(replace(config, iterations=3)).trial_results[0].records
        return calls

    def test_full_knowledge_krum_union(self, monkeypatch):
        # the benign rows' block once; the 2 compromised rows against all 10 before and after crafting
        # (rebuilt only when the attack found a shift and so wrote the crafted rows)
        config = replace(BASE, synth_features=50, rule="krum", attack="craft", knowledge="full", defense="union")
        calls = self.builds(monkeypatch, config)
        shifts = [record.attack_shift for record in self.records]
        assert shifts[0] is not None and None in shifts  # both cases occur
        assert calls == [build for shift in shifts for build in [(8, None), (10, 2)] + [(10, 2)] * (shift is not None)]

    def test_partial_knowledge_krum_err(self, monkeypatch):
        # the attack's candidates are the 4 compromised rows; the defense and the final Krum share one whole build
        config = replace(BASE, num_devices=20, compromised=4, rule="krum", attack="craft", knowledge="partial",
                         defense="err")
        assert self.builds(monkeypatch, config) == [(4, None), (20, None)] * 3

    @pytest.mark.parametrize("rule, expected", [("krum", [(10, None)]), ("bulyan", [(10, None)]), ("mean", [])])
    def test_no_attack(self, monkeypatch, rule, expected):
        config = replace(BASE, rule=rule, compromised=1, defense="lfr" if rule == "krum" else "none")
        assert self.builds(monkeypatch, config) == expected * 3

    def test_a_krum_targeted_attack_on_mean_builds_nothing_after_crafting(self, monkeypatch):
        config = replace(BASE, synth_features=50, rule="mean", attack_rule="krum", attack="craft", knowledge="full")
        assert self.builds(monkeypatch, config) == [(8, None), (10, 2)] * 3

    def test_the_defense_and_final_aggregate_read_the_after_attack_matrix(self, monkeypatch):
        # on the direct path the one matrix equals a fresh build of the after-attack models, bit for bit
        from flrlab.aggregation import pairwise_sq_dists

        seen = []
        real_defense, real_aggregate = harness.apply_defense, harness.aggregate

        def defense(models, *args):
            seen.append(("defense", models, args[-1]))
            return real_defense(models, *args)

        def final(spec, models, rows, sq_dists):
            seen.append(("final", models, sq_dists))
            return real_aggregate(spec, models, rows, sq_dists)

        monkeypatch.setattr(harness, "apply_defense", defense)
        monkeypatch.setattr(harness, "aggregate", final)
        config = replace(BASE, synth_features=50, rule="krum", attack="craft", knowledge="full", defense="union")
        run_experiment(config)
        assert [site for site, _, _ in seen] == ["defense", "final"] * config.iterations
        for _, models, sq_dists in seen:
            assert np.array_equal(sq_dists, pairwise_sq_dists(models))


OVERLAP_CASES = {
    "mean": dict(rule="mean"),
    "krum-craft-union": dict(rule="krum", attack="craft", knowledge="full", defense="union"),
    "trmean-craft-err": dict(rule="trimmed_mean", attack="craft", knowledge="full", defense="err"),
}


class TestOverlappedEvaluation:
    """Evaluating iteration t on the helper thread while iteration t+1's local models train changes
    no byte and no error, and leaves no thread behind."""

    @pytest.mark.parametrize("model", ["lr", "mlp"])
    @pytest.mark.parametrize("case", sorted(OVERLAP_CASES))
    def test_both_evaluation_paths_write_the_same_bytes(self, monkeypatch, case, model):
        # 6 of the 10 devices a round, so every round's sample is drawn by the round before;
        # c = 1 leaves the defenses enough survivors to aggregate
        config = replace(BASE, devices_per_round=6, assumed_compromised=1, trials=2, model=model, hidden=4,
                         **OVERLAP_CASES[case])
        real_evaluate = harness._evaluate
        runs = {}
        switch_interval = sys.getswitchinterval()
        for overlap in (False, True):
            set_overlap(monkeypatch, overlap)
            reports, helper_threads = [], []
            monkeypatch.setattr(harness, "_evaluate", lambda *args, threads=helper_threads: (
                threads.append(threading.current_thread()) or real_evaluate(*args)))
            sys.setswitchinterval(1e-6)  # the two threads trade the interpreter as often as they can
            try:
                result = run_experiment(config, on_iteration=reports.append)
            finally:
                sys.setswitchinterval(switch_interval)
            runs[overlap] = [metrics_csv_lines(trial.records) for trial in result.trial_results], reports
            # three evaluations an iteration on the helper, but for each trial's last, which runs inline
            assert len(helper_threads) == (3 * 2 * (config.iterations - 1) if overlap else 0)
            assert threading.main_thread() not in helper_threads
        (inline_csv, inline_reports), (overlap_csv, overlap_reports) = runs[False], runs[True]
        assert overlap_csv == inline_csv
        assert len(overlap_reports) == len(inline_reports) == 2 * config.iterations
        for inline, overlapped in zip(inline_reports, overlap_reports):
            assert np.array_equal(overlapped.sampled, inline.sampled)
            assert np.array_equal(overlapped.models, inline.models)
            assert np.array_equal(overlapped.new_global, inline.new_global)
            if inline.defense is None:
                assert overlapped.defense is None
            else:
                assert np.array_equal(overlapped.defense.removed, inline.defense.removed)

    def test_the_helper_keeps_off_the_main_threads_cpu(self, monkeypatch):
        set_overlap(monkeypatch, True)
        allowed, real_evaluate = os.sched_getaffinity(0), harness._evaluate
        helper_cpus = []
        monkeypatch.setattr(harness, "_evaluate",
                            lambda *args: helper_cpus.append(os.sched_getaffinity(0)) or real_evaluate(*args))
        run_experiment(BASE)
        assert helper_cpus and all(cpus == helper_cpus[0] for cpus in helper_cpus)
        # one CPU fewer than the process may use: the one the main thread ran on when the trial started
        if len(allowed) > 1:
            assert helper_cpus[0] < allowed
        else:
            assert helper_cpus[0] == allowed
        assert os.sched_getaffinity(0) == allowed  # the main thread stays unpinned

    def test_a_nan_local_model_is_still_named_by_its_own_iteration(self, monkeypatch):
        # iteration 0 trains iteration 1's local models; iteration 1 checks them, after hook 0
        set_overlap(monkeypatch, True)
        nan_for_device_6(monkeypatch)
        hooked = []
        with pytest.raises(ConfigError, match=r"iteration 1: the local models of devices \[6\] hold NaN or Inf"):
            run_experiment(replace(BASE, rule="krum"), on_iteration=lambda report: hooked.append(report.iteration))
        assert hooked == [0]

    @pytest.mark.parametrize("ending", ["normal", "config_error", "hook_raises", "stopped_at_iteration_2"])
    def test_no_thread_outlives_a_trial(self, monkeypatch, ending):
        class Stop(Exception):
            pass

        set_overlap(monkeypatch, True)
        start = threading.active_count()
        alive = []

        def hook(report):
            alive.append(threading.active_count())
            if ending == "hook_raises" and report.iteration == 1:
                raise Stop

        if ending == "config_error":
            nan_for_device_6(monkeypatch)
        if ending == "stopped_at_iteration_2":
            # perfbench's measurement loop stops an experiment this way, at an iteration's entry
            real_iteration = harness.run_iteration

            def stopping(state, config, iteration):
                if iteration == 2:
                    raise Stop
                return real_iteration(state, config, iteration)

            monkeypatch.setattr(harness, "run_iteration", stopping)
        raised = {"normal": None, "config_error": ConfigError}.get(ending, Stop)
        with pytest.raises(raised) if raised else nullcontext():
            run_experiment(replace(BASE, rule="krum", trials=2), on_iteration=hook)
        assert alive and set(alive) == {start + 1}  # the helper ran beside every hook
        assert threading.active_count() == start
