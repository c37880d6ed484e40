"""Tests of the benchmark's own accounting, tracer and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, load_flrlab, workload_config

load_flrlab()

import numpy as np  # noqa: E402  (after load_flrlab pins the BLAS threads)

import bench  # noqa: E402
import checks  # noqa: E402
import kernels  # noqa: E402
from flrlab import harness  # noqa: E402
from tracer import ROOT as ROOT_SPAN  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_known_crashing_config_counts_every_iteration_failed():
    # Bulyan's leave-one-out runs on m-1 models with theta fixed from m, so
    # iteration 0 raises; the benchmark must report that, not abort.
    config = workload_config("fedavg-clean", 0, rule="bulyan", defense="lfr")
    run = bench.measure(config, seconds=1.0)
    assert run.completed == 0
    assert bench.ops(run) == (config.iterations, config.iterations)
    assert not run.problems


def test_crash_mid_run_counts_remaining_iterations(monkeypatch):
    original = harness.run_iteration

    def crash_at_three(state, config, iteration):
        if iteration == 3:
            raise ValueError("injected failure")
        return original(state, config, iteration)

    monkeypatch.setattr(harness, "run_iteration", crash_at_three)
    config = workload_config("fedavg-clean", 0, iterations=10)
    run = bench.measure(config, seconds=5.0)
    assert run.completed == 3
    assert bench.ops(run) == (10, 7)


def test_failed_check_fails_every_iteration():
    config = workload_config("fedavg-clean", 0, iterations=5)
    run = bench.measure(config, seconds=0.5, reference=[1.0] * config.iterations)
    attempted, failed = bench.ops(run)
    assert run.problems and attempted == failed == run.completed > 0


def test_traced_layers_account_for_the_iteration():
    config = workload_config("krum-craft-union", 0, iterations=3)
    reference, stale = checks.load_reference("krum-craft-union", 0)
    assert reference is not None and not stale
    run = bench.measure(config, seconds=0.5, trace=True, reference=reference)
    assert not run.problems and run.failed == 0
    totals = run.tracer.totals[ROOT_SPAN]
    assert abs(sum(totals.self_s.values()) - totals.root_s) < 1e-9  # by construction of the fold
    assert totals.self_s[ROOT_SPAN] < bench.HARNESS_SELF_SHARE_LIMIT * totals.root_s
    layers = bench.per_layer(run)
    assert layers["harness.trace_overhead_ms"][0] > 0
    assert layers["defenses.loo_aggregate_calls"][0] == 1  # Union uses the fast Krum LOO path
    assert layers["models.local_update_calls"][0] == config.num_devices


def test_untraced_hot_path_fails_the_traced_run(monkeypatch):
    original = harness.run_iteration

    def slow_harness(state, config, iteration):
        time.sleep(0.05)  # stands for harness work outside every traced layer
        return original(state, config, iteration)

    monkeypatch.setattr(harness, "run_iteration", slow_harness)
    config = workload_config("fedavg-clean", 0, iterations=3)
    run = bench.measure(config, seconds=0.3, trace=True)
    assert any("harness.self_ms" in problem for problem in run.problems)


def test_stale_reference_is_a_problem(tmp_path, monkeypatch):
    stale = {"fedavg-clean": {"0": {"settings_hash": "0" * 12, "test_error": [0.5] * 100}}}
    monkeypatch.setattr(checks, "REFERENCE", tmp_path / "reference.json")
    checks.REFERENCE.write_text(json.dumps(stale))
    reference, problems = checks.load_reference("fedavg-clean", 0)
    assert reference is None and "stale" in problems[0]


def test_metric_names_match_benchmark_json():
    config = workload_config("fedavg-clean", 0, iterations=2)
    run = bench.measure(config, seconds=0.2)
    assert list(bench.end_to_end(run)) == [m["name"] for m in BENCHMARK["end_to_end"]]
    traced = bench.measure(config, seconds=0.2, trace=True)
    names = list(bench.per_layer(traced)) + list(kernels.run_kernels(0))
    assert names == [m["name"] for m in BENCHMARK["per_layer"]]


def test_reference_rules_catch_a_wrong_aggregate():
    rng = np.random.default_rng(0)
    survivors = rng.normal(size=(30, 50))
    best = int(np.argmin(checks.reference_krum_scores(survivors, 5)))
    for rule, right, wrong in [
        ("mean", survivors.mean(axis=0), survivors.mean(axis=0) + 1e-6),
        ("trimmed_mean", np.sort(survivors, axis=0)[5:25].mean(axis=0), survivors.mean(axis=0)),
        ("krum", survivors[best], survivors[(best + 1) % 30]),
    ]:
        config = workload_config("fedavg-clean", 0, rule=rule, compromised=5)
        assert checks.global_model_problems(config, survivors, right) == []
        assert checks.global_model_problems(config, survivors, wrong)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fedavg-clean", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
