"""Closed-loop measurement of ``flrlab`` federated iterations.

One process, one iteration in flight: each iteration starts when the
previous one ends.  A run sets up the workload's experiment several times to
time set-up, then runs experiments back to back (each restarting at
iteration 0 with the same seed) until the time budget is spent, stopping the
last one at an iteration boundary, then times set-up as many times again.
An operation is one federated iteration.

Untraced runs give the end-to-end metrics.  Traced runs patch the span
tracer onto the ``flrlab`` call sites and give per-layer metrics, check each
iteration's global model against a reference rule, and check that the
harness's own code, outside every traced layer, stays a small share of the
iteration, so that a hot path the tracer does not wrap shows.
"""

from __future__ import annotations

import importlib
import math
import resource
import statistics
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from tracer import LAYERS, ROOT, Tracer, patch, patch_layers, span_cost_s

MODULES = ("aggregation", "attacks", "core", "defenses", "harness", "models")
# Set-ups timed before the window and again after it.  The host's speed
# drifts over seconds, so the median should see both ends of the run, not
# one phase of it.
SETUP_SAMPLES = 8
# Largest share of the traced iteration the harness may spend outside every
# traced layer (about 5% on fedavg-clean, under 2% on the others).
HARNESS_SELF_SHARE_LIMIT = 0.15


class _Stop(Exception):
    """Ends an experiment at an iteration boundary."""


@dataclass
class Run:
    """What one run observed."""

    setup_s: list[float] = field(default_factory=list)
    iter_s: list[float] = field(default_factory=list)
    window_s: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    experiments: list[list] = field(default_factory=list)  # MetricsRecords of each experiment in the window
    final_test_errors: list[float] = field(default_factory=list)
    tracer: Tracer | None = None
    counts: dict = field(default_factory=lambda: {"craft_attempts": 0, "craft_successes": 0,
                                                  "caught": 0, "removed": 0, "compromised_present": 0})

    @property
    def completed(self) -> int:
        return len(self.iter_s)


def measure(config, seconds: float, trace: bool = False, reference: list[float] | None = None) -> Run:
    """Run ``config`` in a closed loop for ``seconds`` and check its outputs."""
    modules = {name: importlib.import_module(f"flrlab.{name}") for name in MODULES}
    harness = modules["harness"]
    run = Run()
    loop = {"stop_before": 0, "deadline": math.inf, "first_entry": None, "last_end": None, "records": None}

    def bench_iteration(run_iteration):
        def timed(state, cfg, iteration):
            start = perf_counter()
            if iteration == 0:
                loop["first_entry"] = start
            if iteration >= loop["stop_before"] or start >= loop["deadline"]:
                raise _Stop
            new_global, record, report = run_iteration(state, cfg, iteration)
            loop["last_end"] = perf_counter()
            run.iter_s.append(loop["last_end"] - start)
            loop["records"].append(record)
            return new_global, record, report

        return timed

    def experiment(on_iteration=None) -> bool:
        """Run one experiment until it ends or is stopped; False if it failed."""
        loop["first_entry"] = None
        loop["records"] = []
        called = perf_counter()
        try:
            result = harness.run_experiment(config, on_iteration=on_iteration)
            run.final_test_errors.append(result.trial_results[0].final_test_error)
        except _Stop:
            pass
        except Exception:  # the run goes on to report the failure
            traceback.print_exc(file=sys.stderr)
            run.failed += config.iterations - len(loop["records"])
            return False
        finally:
            if loop["first_entry"] is not None:
                run.setup_s.append(loop["first_entry"] - called)
        return True

    with ExitStack() as stack:
        if trace:
            run.tracer = Tracer()
            patch_layers(stack, modules, run.tracer, on_result={
                ("harness", "attack_krum"): lambda result: _count_craft(run, result.success),
                ("harness", "attack_trimmed_mean"): lambda result: _count_craft(run, True),
                ("harness", "attack_gaussian"): lambda result: _count_craft(run, True),
            })
        patch(stack, harness, "run_iteration", bench_iteration)

        ok = True
        for _ in range(SETUP_SAMPLES):
            ok = ok and experiment()

        on_iteration = (lambda report: _check_iteration(run, config, report)) if trace else None
        loop["stop_before"] = math.inf
        start = loop["last_end"] = perf_counter()
        loop["deadline"] = start + seconds
        while ok and perf_counter() < loop["deadline"]:
            ok = experiment(on_iteration)
            run.experiments.append(loop["records"])
        run.window_s = loop["last_end"] - start

        loop["stop_before"] = 0
        for _ in range(SETUP_SAMPLES):
            ok = ok and experiment()

    _check_outputs(run, reference)
    if trace:
        run.problems += _harness_self_problems(run)
    return run


def _count_craft(run: Run, success: bool) -> None:
    run.counts["craft_attempts"] += 1
    run.counts["craft_successes"] += int(success)


def _check_iteration(run: Run, config, report) -> None:
    """Reference-rule check of the global model, plus defense ground truth."""
    survivors = report.models if report.defense is None else report.defense.survivors
    run.problems += checks.global_model_problems(config, survivors, report.new_global)
    if report.defense is not None:
        compromised = report.sampled < config.compromised
        removed = list(report.defense.removed)
        run.counts["caught"] += int(compromised[removed].sum())
        run.counts["removed"] += len(removed)
        run.counts["compromised_present"] += int(compromised.sum())


def _check_outputs(run: Run, reference) -> None:
    for records in run.experiments:
        for record in records:
            run.problems += checks.record_problems(record)
        if reference is not None:
            run.problems += checks.trajectory_problems(records, reference)
        if records != run.experiments[0][: len(records)]:
            run.problems.append("a repeated experiment with the same seed produced different records")


def _harness_self_problems(run: Run) -> list[str]:
    totals = run.tracer.totals[ROOT]
    if totals.self_s[ROOT] > HARNESS_SELF_SHARE_LIMIT * totals.root_s:
        share = totals.self_s[ROOT] / totals.root_s
        return [f"harness.self_ms is {share:.0%} of the traced iteration, over {HARNESS_SELF_SHARE_LIMIT:.0%}: "
                "a hot path outside every layer in tracer.LAYERS"]
    return []


def ops(run: Run) -> tuple[int, int]:
    """(attempted, failed) iterations; a failed check fails every iteration."""
    attempted = run.completed + run.failed
    return attempted, attempted if run.problems else run.failed


def end_to_end(run: Run) -> dict[str, tuple[float | None, str]]:
    ms = np.asarray(run.iter_s) * 1e3
    timed = ms.size > 0
    return {
        "iter_ms_p50": (float(np.median(ms)) if timed else None, "ms"),
        "iter_ms_p90": (float(np.percentile(ms, 90)) if timed else None, "ms"),
        "iters_per_s": (run.completed / run.window_s if timed else None, "1/s"),
        "setup_s": (statistics.median(run.setup_s) if run.setup_s else None, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# layer span -> name of its per-iteration call count, where that is not "<layer>_calls"
COUNT_NAMES = {"attacks.krum": "attacks.krum_evals"}


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-iteration layer means from the traced window; set-up layers per set-up."""
    totals = run.tracer.totals[ROOT]
    n = max(totals.trees, 1)
    out: dict[str, tuple[float, str]] = {
        "harness.traced_iter_ms": (totals.root_s / n * 1e3, "ms"),
        "harness.self_ms": (totals.self_s[ROOT] / n * 1e3, "ms"),
    }
    child_spans = sum(totals.calls.values()) - totals.trees
    out["harness.trace_overhead_ms"] = (child_spans / n * span_cost_s() * 1e3, "ms")
    for layer in LAYERS:
        if layer == ROOT or layer.startswith("data."):
            continue
        out[f"{layer}_ms"] = (totals.inclusive_s[layer] / n * 1e3, "ms")
        out[f"{layer}_self_ms"] = (totals.self_s[layer] / n * 1e3, "ms")
        out[COUNT_NAMES.get(layer, f"{layer}_calls")] = (totals.calls[layer] / n, "count")
    c = run.counts
    out["attacks.success_ratio"] = (_ratio(c["craft_successes"], c["craft_attempts"]), "ratio")
    out["defenses.recall"] = (_ratio(c["caught"], c["compromised_present"]), "ratio")
    out["defenses.precision"] = (_ratio(c["caught"], c["removed"]), "ratio")
    for layer in ("data.build", "data.partition"):
        setup = run.tracer.totals[layer]
        out[f"{layer}_s"] = (setup.root_s / max(setup.trees, 1), "s")
    return out


def _ratio(num: int, den: int) -> float:
    """num/den, or 0.0 when the layer did not run (den == 0)."""
    return num / den if den else 0.0

