"""Golden metrics CSVs: a small seeded grid must reproduce its recorded bytes.

The grid crosses every aggregation rule with every defense and five attack
settings on a 10-device federation with logistic regression, plus every rule
with no attack and the full-knowledge crafted attack on a 4-unit MLP (keys
prefixed ``mlp/``), plus the full-knowledge crafted attack against Krum and
Bulyan on 50 features (keys prefixed ``f50/``), where every iteration finds a
crafted shift, plus Bulyan under each defense and the full-knowledge crafted
attack on 20 devices (keys prefixed ``n20/``), plus the full-knowledge crafted
attack under the undirected deviation objective against each coordinate-wise
rule (keys prefixed ``dev/``) and against Krum and Bulyan on 50 features (keys
prefixed ``dev-f50/``).  ``golden_metrics.json`` holds
the ``metrics_csv_lines`` text of each config that runs.  Bulyan needs
m >= 4c+1 = 9 models, so on 10 devices it cannot aggregate a defense's 8 or
fewer survivors, and ``ExperimentConfig.validate`` rejects it under a defense.

Re-record (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from flrlab.aggregation import RULES
from flrlab.defenses import DEFENSE_KINDS
from flrlab.harness import ConfigError, ExperimentConfig, metrics_csv_lines, run_experiment

GOLDEN = Path(__file__).with_name("golden_metrics.json")

BASE = ExperimentConfig(
    num_devices=10,
    compromised=2,
    iterations=3,
    synth_per_class=50,
    synth_test_per_class=20,
    validation_size=20,
)

ATTACKS = {
    "none": dict(attack="none"),
    "gaussian": dict(attack="gaussian"),
    "label_flip": dict(attack="label_flip"),
    "craft-full": dict(attack="craft", knowledge="full"),
    "craft-partial": dict(attack="craft", knowledge="partial"),
}

GRID = {
    f"{rule}/{defense}/{attack}": replace(BASE, rule=rule, defense=defense, **fields)
    for rule in RULES
    for defense in DEFENSE_KINDS
    for attack, fields in ATTACKS.items()
}
GRID.update(
    {
        f"mlp/{rule}/none/{attack}": replace(BASE, model="mlp", hidden=4, rule=rule, **ATTACKS[attack])
        for rule in RULES
        for attack in ("none", "craft-full")
    }
)
GRID.update(
    {
        f"f50/{rule}/none/craft-full": replace(BASE, synth_features=50, rule=rule, **ATTACKS["craft-full"])
        for rule in ("krum", "bulyan")
    }
)
GRID.update(
    {
        f"n20/bulyan/{defense}/craft-full": replace(BASE, num_devices=20, rule="bulyan", defense=defense,
                                                    **ATTACKS["craft-full"])
        for defense in ("err", "lfr", "union")
    }
)
GRID.update(
    {
        f"dev/{rule}/none/craft-full": replace(BASE, rule=rule, objective="deviation", **ATTACKS["craft-full"])
        for rule in ("mean", "median", "trimmed_mean")
    }
)
GRID.update(
    {
        f"dev-f50/{rule}/none/craft-full": replace(BASE, synth_features=50, rule=rule, objective="deviation",
                                                   **ATTACKS["craft-full"])
        for rule in ("krum", "bulyan")
    }
)


def csv_text(config: ExperimentConfig) -> str:
    records = run_experiment(config).trial_results[0].records
    return "\n".join(metrics_csv_lines(records)) + "\n"


# empty while re-recording; the count check below then fails
GOLDEN_CSV: dict[str, str] = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_metrics_csv_is_byte_identical(name):
    assert csv_text(GRID[name]) == GOLDEN_CSV[name]


def test_grid_configs_without_golden_are_rejected_before_iteration_zero():
    assert len(GOLDEN_CSV) == 105
    skipped = sorted(set(GRID) - set(GOLDEN_CSV))
    assert skipped == sorted(
        f"bulyan/{defense}/{attack}" for defense in DEFENSE_KINDS if defense != "none" for attack in ATTACKS
    )
    for name in skipped:
        with pytest.raises(ConfigError):
            GRID[name].validate()


@pytest.mark.parametrize("sampled", [None, 15])
@pytest.mark.parametrize("defense", DEFENSE_KINDS)
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_bulyan_runs_whenever_every_count_is_at_least_4c_plus_1(attack, defense, sampled):
    # 20 devices, c = 2: 15 or 20 sampled, 14 or 19 per leave-one-out set, 11 or more survivors
    config = replace(BASE, num_devices=20, devices_per_round=sampled, rule="bulyan", defense=defense, **ATTACKS[attack])
    records = run_experiment(config).trial_results[0].records
    assert len(records) == config.iterations


if __name__ == "__main__":
    recorded = {}
    for name, config in GRID.items():
        try:
            recorded[name] = csv_text(config)
        except ValueError:
            continue
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} of {len(GRID)} configs in {GOLDEN}")
