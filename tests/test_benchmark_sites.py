"""The benchmark's tracer patches flrlab call sites by name, its workloads
and checks read config fields by name, its kernels call flrlab functions
with fixed signatures, and its measurement loop reads the results of
``run_experiment``; a rename or removal that drops one would only show
when someone runs ``perfbench/run.py``."""

import importlib
import importlib.util
import json
import pkgutil
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest

import flrlab
from flrlab import harness
from flrlab.harness import ExperimentConfig, run_experiment

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


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_no_traced_call_site_runs_off_the_main_thread(monkeypatch, workload):
    # perfbench/tracer.py keeps one span stack per process: a traced call on a second thread could
    # interleave its `index = len(spans)` and `spans.append(None)` with the main thread's, leave a
    # None span behind, and crash `_fold` when it unpacks that span
    monkeypatch.setattr(harness, "OVERLAP_MIN_VALUES", 0)  # every evaluation on the helper thread
    callers = []
    for _, module, attr in traced_sites():
        *path, leaf = attr.split(".")
        owner = importlib.import_module(f"flrlab.{module}")
        for part in path:
            owner = getattr(owner, part)

        def recording(*args, original=getattr(owner, leaf), **kwargs):
            callers.append(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, recording)
    helper, real_evaluate = [], harness._evaluate
    monkeypatch.setattr(harness, "_evaluate",
                        lambda *args: helper.append(threading.current_thread()) or real_evaluate(*args))
    run_experiment(replace(BASE, **workloads.WORKLOADS[workload]))
    assert callers and set(callers) == {threading.main_thread()}
    assert helper and threading.main_thread() not in helper


# Full finiteness scans of a model matrix per iteration: the three evaluations' checks, plus on the crafted
# workloads the attacker's KnowledgeScope and the defense's stacked scoring; the window rules check the ends
# of the columns they sort, and the Krum path reads the harness's checked norms.
SCANS_PER_ITERATION = {"fedavg-clean": 3, "krum-craft-union": 5, "trmean-craft-err": 5}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_full_matrix_scans_per_iteration(monkeypatch, workload):
    scans = []
    for info in pkgutil.iter_modules(flrlab.__path__):
        module = importlib.import_module(f"flrlab.{info.name}")
        if hasattr(module, "as_model_matrix"):
            def counted(models, finite=True, original=module.as_model_matrix):
                scans.append(finite)
                return original(models, finite)

            monkeypatch.setattr(module, "as_model_matrix", counted)
    config = replace(BASE, **workloads.WORKLOADS[workload])
    run_experiment(config)
    assert sum(scans) == SCANS_PER_ITERATION[workload] * config.iterations
