"""The benchmark's tracer patches flrlab call sites by name, its workloads
and checks read config fields by name, its kernels call flrlab functions
with fixed signatures, and its measurement loop reads the results of
``run_experiment``; a rename or removal that drops one would only show
when someone runs ``perfbench/run.py``."""

import importlib
import importlib.util
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from flrlab.harness import ExperimentConfig

from test_golden import BASE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_sites() -> list[tuple[str, str, str]]:
    tracer = load_perfbench("tracer")
    return [(layer, module, attr) for layer, sites in tracer.LAYERS.items() for module, attr in sites]


@pytest.mark.parametrize("layer, module, attr", traced_sites())
def test_traced_call_site_resolves(layer, module, attr):
    owner = importlib.import_module(f"flrlab.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{layer}: flrlab.{module}.{attr} is not callable"


workloads = load_perfbench("workloads")


def workload_settings(name: str) -> dict:
    return {**workloads.BASE, **workloads.WORKLOADS[name]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_settings_are_config_fields(workload):
    assert set(workload_settings(workload)) <= {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_aggregator_spec_has_what_the_checks_read(workload):
    # perfbench/checks.py builds each workload's reference rule from these
    spec = ExperimentConfig(**workload_settings(workload)).aggregator_spec()
    for name in ("rule", "assumed_compromised", "trim_count"):
        assert hasattr(spec, name), f"aggregator_spec() has no {name}"


def call_once(fn, *args, **kwargs) -> float:
    fn()
    return 0.0


def test_kernels_run_and_match_the_benchmark_metrics(monkeypatch):
    kernels = load_perfbench("kernels")
    monkeypatch.setattr(kernels, "_time_us", call_once)  # each kernel called once, not timed
    names = set(kernels.run_kernels(0))
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in declared["per_layer"] if m["name"].startswith("kernel.")}
    assert names == expected


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_measure_runs_each_workload_on_a_small_federation(monkeypatch, workload, trace):
    # the workload's rule, attack and defense on the golden grid's 10-device federation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    config = replace(BASE, **workloads.WORKLOADS[workload])
    run = bench.measure(config, seconds=0.1, trace=trace)
    assert run.completed > 0
    assert run.failed == 0
    assert run.problems == []
    # an experiment that fails after its last iteration counts no failed iteration
    assert run.final_test_errors


def test_the_direction_work_stays_inside_its_traced_call(monkeypatch):
    # the coordinate-wise attack's expected aggregate is computed inside estimate_direction, one call per iteration
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    run = bench.measure(replace(BASE, **workloads.WORKLOADS["trmean-craft-err"]), seconds=0.1, trace=True)
    layers = bench.per_layer(run)
    assert run.problems == []
    assert layers["attacks.direction_calls"][0] == 1
    assert layers["attacks.direction_ms"][0] > 0
