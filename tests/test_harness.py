import itertools
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from flrlab import harness
from flrlab.aggregation import RULES
from flrlab.data import save_csv, synth_blobs
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

from test_data import traced_peak, write_idx_pair
from test_golden import ATTACKS, BASE

OPTIONAL_FIELDS = [f.name for f in fields(ExperimentConfig) if "None" in f.type]


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
            refs.extend(weakref.ref(array) for array in (report.models, report.defense.survivors))

        monkeypatch.setattr(harness, attack_site, recording_attack)
        monkeypatch.setattr(harness, "aggregate", checking_aggregate)
        run_experiment(config, on_iteration=weak_hook)
        # iteration t sees its own crafted array and three arrays of each earlier iteration
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
