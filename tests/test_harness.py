import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from flrlab.aggregation import RULES
from flrlab.defenses import DEFENSE_KINDS
from flrlab.harness import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    poison_schedule,
    run_experiment,
)

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
            dict(attack="craft", support_radius=0.0),
            dict(attack="craft", interval_factor=1.0),
            # a sample of 3 can hold only compromised devices
            dict(attack="craft", devices_per_round=3, compromised=4),
            # a sample of 6 can hold 4 compromised devices, too many for the attacker's trimmed mean
            dict(rule="trimmed_mean", trim_count=1, attack="craft", devices_per_round=6, compromised=4),
            dict(rule="median", attack="craft", attack_rule="trimmed_mean", devices_per_round=6, compromised=4),
            dict(rule="mean", attack="craft", knowledge="partial", objective="deviation"),
            dict(rule="median", attack="craft", knowledge="partial", objective="deviation"),
            dict(rule="trimmed_mean", attack="craft", knowledge="partial", objective="deviation"),
            dict(label_bias=0.0),
            dict(label_bias=1.5),
            dict(model="mlp", hidden=0),
            dict(synth_classes=3),  # 10 devices
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


class TestHarnessOptions:
    def test_best_validation_selects_the_earliest_minimum(self):
        config = replace(
            BASE, iterations=8, selection="best_validation", attack="gaussian", synth_spread=1.5, learning_rate=0.02, seed=5
        )
        trial = run_experiment(config).trial_results[0]
        errors = [r.validation_error for r in trial.records]
        # this seed's minimum is tied over several iterations, none of them the last
        assert errors.count(min(errors)) > 1 and errors[-1] > min(errors)
        assert trial.selected_iteration == int(np.argmin(errors))
        assert trial.final_validation_error == errors[trial.selected_iteration]

    def test_poison_fraction_schedules_that_many_iterations(self):
        config = replace(BASE, iterations=4, poison_fraction=0.5, attack="gaussian")
        records = run_experiment(config).trial_results[0].records
        assert sum(r.attack_active for r in records) == 2

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_poison_schedule_size(self, fraction):
        schedule = poison_schedule(7, fraction, np.random.default_rng(0))
        assert len(schedule) == round(fraction * 7)
        assert schedule <= set(range(7))


class TestConfigMapping:
    def test_optional_fields_are_covered(self):
        assert set(OPTIONAL_FIELDS) == {
            "devices_per_round",
            "assumed_compromised",
            "trim_count",
            "selection_count",
            "average_count",
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
        with pytest.raises(ConfigError):
            config_from_mapping({"rounds": "3"})
