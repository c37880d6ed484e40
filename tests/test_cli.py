import json
from pathlib import Path

import numpy as np
import pytest

from flrlab import harness
from flrlab.cli import main

GOLDEN = json.loads(Path(__file__).with_name("golden_metrics.json").read_text())

SMALL = """\
# a 10-device federation that runs in well under a second
num_devices = 10
compromised = 2
iterations = 3
synth_per_class = 50
synth_test_per_class = 20
validation_size = 20
"""


def small_config(tmp_path: Path) -> str:
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def test_run_writes_trial_and_summary(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--seed", "0", "--config", small_config(tmp_path), "--out", str(out)]) == 0
    assert (out / "trial_00.csv").read_text() == GOLDEN["mean/none/none"]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("config_hash,trials,")
    assert len(summary) == 2


def test_summary_reads_each_trials_last_record(tmp_path):
    out = tmp_path / "run"
    # overlapping classes and small batches: the trials end on different errors,
    # and each trial's last record differs from the one before it
    args = ["run", "--seed", "0", "--config", small_config(tmp_path), "--set", "trials=3", "--set", "synth_spread=2.0",
            "--set", "batch_size=4", "--out", str(out)]
    assert main(args) == 0
    rows = [[line.split(",") for line in (out / f"trial_{i:02d}.csv").read_text().splitlines()] for i in range(3)]
    assert all(trial[-1][2:4] != trial[-2][2:4] for trial in rows)
    test_errors = [float(trial[-1][2]) for trial in rows]
    validation_errors = [float(trial[-1][3]) for trial in rows]
    assert len(set(test_errors)) == 3
    header, row = (line.split(",") for line in (out / "summary.csv").read_text().splitlines())
    summary = dict(zip(header, row))
    assert summary["trials"] == "3"
    assert float(summary["mean_final_test_error"]) == np.mean(test_errors)
    assert float(summary["std_final_test_error"]) == np.std(test_errors)
    assert float(summary["mean_final_validation_error"]) == np.mean(validation_errors)
    assert [float(e) for e in summary["per_trial_final_test_error"].split(";")] == test_errors


def test_sweep_writes_one_run_per_value(tmp_path):
    out = tmp_path / "sweep"
    args = ["sweep", "--config", small_config(tmp_path), "--param", "compromised", "--values", "1,2", "--out", str(out)]
    assert main(args) == 0
    for value in ("1", "2"):
        assert (out / f"compromised_{value}_trial_00.csv").is_file()
        assert (out / f"compromised_{value}_summary.csv").is_file()
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "compromised,mean_final_test_error"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_sweep_takes_any_field(tmp_path):
    out = tmp_path / "sweep"
    args = ["sweep", "--config", small_config(tmp_path), "--param", "rule", "--values", "mean,median", "--out", str(out)]
    assert main(args) == 0
    for rule in ("mean", "median"):
        assert (out / f"rule_{rule}_trial_00.csv").read_text() == GOLDEN[f"{rule}/none/none"]
    rows = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["rule", "mean", "median"]


def test_defend_writes_the_matrix(tmp_path):
    out = tmp_path / "defend"
    args = ["defend", "--config", small_config(tmp_path), "--assumed", "trimmed_mean", "--actual", "median",
            "--defenses", "none,err", "--knowledge", "full", "--out", str(out)]
    assert main(args) == 0
    rows = (out / "defend.csv").read_text().splitlines()
    assert rows[0] == "actual_rule,defense,attacker_assumed_rule,mean_final_test_error"
    assert [row.rsplit(",", 1)[0] for row in rows[1:]] == [
        "median,none,none",
        "median,none,trimmed_mean",
        "median,err,none",
        "median,err,trimmed_mean",
    ]
    assert (out / "median_err_trimmed_mean_trial_00.csv").read_text() == GOLDEN["median/err/craft-full"]


def test_rejected_config_exits_2(tmp_path, capsys):
    out = tmp_path / "bad"
    args = ["run", "--seed", "0", "--config", small_config(tmp_path), "--set", "rule=bulyan", "--set", "defense=lfr",
            "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "field, kind, flags, extra",
    [
        ("iterations", "int", ["--set", "iterations=abc"], ""),
        ("learning_rate", "float", ["--set", "learning_rate=fast"], ""),
        ("iterations", "int", [], "iterations = 2.5\n"),
    ],
    ids=["set-int", "set-float", "config-file-int"],
)
def test_a_badly_typed_value_names_its_field(tmp_path, capsys, field, kind, flags, extra):
    config = tmp_path / "typed.cfg"
    config.write_text(SMALL + extra)
    out = tmp_path / "bad"
    assert main(["run", "--seed", "1", "--config", str(config), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert field in err and kind in err
    assert not out.exists()


def test_an_empty_shard_in_a_later_trial_exits_2_before_any_iteration(tmp_path, capsys, monkeypatch):
    # 30 training instances on 10 devices: only trial 2 leaves a device without data
    iterations = []
    run_iteration = harness.run_iteration
    monkeypatch.setattr(harness, "run_iteration", lambda *args: iterations.append(args[2]) or run_iteration(*args))
    out = tmp_path / "bad"
    sets = ["synth_per_class=15", "synth_test_per_class=10", "validation_size=5", "iterations=2", "trials=3"]
    args = ["run", "--seed", "0", "--config", small_config(tmp_path), "--out", str(out)]
    assert main([*args, *(flag for item in sets for flag in ("--set", item))]) == 2
    assert "trial 2" in capsys.readouterr().err
    assert iterations == []
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        # bulyan (m >= 4c+1 = 9) cannot aggregate ERR's 8 survivors; six median and bulyan runs come first
        ["defend", "--actual", "median,bulyan", "--defenses", "none,err", "--assumed", "trimmed_mean", "--knowledge", "full"],
        # 5 of 10 devices is not fewer than half; the run with 1 comes first
        ["sweep", "--param", "compromised", "--values", "1,5"],
        ["sweep", "--param", "csv_path", "--values", "data.csv,data/train.csv"],
        ["sweep", "--param", "rounds", "--values", "1"],
        # 4 training instances leave devices without data, a set-up check; the run with 50 comes first
        ["sweep", "--param", "synth_per_class", "--values", "50,2"],
    ],
)
def test_rejected_matrix_runs_nothing(tmp_path, capsys, args):
    out = tmp_path / "bad"
    assert main([*args, "--config", small_config(tmp_path), "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("error:")
    assert printed.out == ""
    assert not out.exists()
