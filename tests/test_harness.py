from dataclasses import fields, replace

import pytest

from flrlab.harness import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    run_experiment,
)

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
        config = ExperimentConfig(num_devices=5, compromised=2, rule="krum", defense=defense)
        replace(config, defense="none").validate()
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize("defense", ["err", "lfr", "union"])
    def test_removal_leaves_too_few(self, defense):
        # mean tolerates any survivor count but not removing every sampled model
        config = ExperimentConfig(devices_per_round=20, rule="mean", defense=defense)
        with pytest.raises(ConfigError):
            config.validate()

    def test_smallest_valid_sample_runs(self):
        config = ExperimentConfig(rule="krum", devices_per_round=23, iterations=2)
        result = run_experiment(config)
        assert len(result.trial_results[0].records) == 2


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
