"""In-memory span tracer patched onto ``flrlab`` module attributes.

Every wrapped call records a span (name, start, end, parent).  Spans are
kept in memory until the root span that holds them closes; the tree is then
folded into per-layer totals, where a span's self time is its duration minus
the durations of its child spans.  Summed over a tree, self times therefore
add up to the root's duration by construction; time spent outside every
wrapped call site lands in the root's own self time.

``flrlab`` modules import each other's functions by name, so a function is
patched in every module namespace that calls it; the call site decides the
layer (``harness.aggregate`` is the final aggregation, ``defenses.aggregate``
is a leave-one-out aggregate).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import ExitStack
from time import perf_counter
from unittest import mock

ROOT = "harness.iteration"

# layer span -> the (module, attribute) call sites it wraps
LAYERS = {
    ROOT: [("harness", "run_iteration")],
    "models.local_update": [("harness", "local_update")],
    "core.rng": [("core", "RngStream.generator")],
    "models.eval": [("harness", "error_rate"), ("harness", "loss")],
    "attacks.craft": [("harness", "attack_krum"), ("harness", "attack_trimmed_mean"), ("harness", "attack_gaussian")],
    # the no-attack aggregate and signed direction the coordinate-wise attack works against
    "attacks.direction": [
        ("harness", "mean"),
        ("harness", "median"),
        ("harness", "trimmed_mean"),
        ("harness", "estimate_direction"),
    ],
    "attacks.krum": [("attacks", "krum")],
    "attacks.shift_bound": [("attacks", "krum_shift_upper_bound")],
    "aggregation.pairwise": [
        ("aggregation", "pairwise_sq_dists"),
        ("attacks", "pairwise_sq_dists"),
        ("defenses", "pairwise_sq_dists"),
    ],
    "aggregation.final": [("harness", "aggregate")],
    "defenses.apply": [("harness", "apply_defense")],
    "defenses.loo_aggregate": [("defenses", "aggregate")],
    "defenses.score": [("defenses", "error_rate"), ("defenses", "loss")],
    "core.validate": [
        ("core", "as_model_matrix"),
        ("core", "as_vector"),
        ("aggregation", "as_model_matrix"),
        ("attacks", "as_model_matrix"),
        ("attacks", "as_vector"),
        ("defenses", "as_model_matrix"),
        ("models", "as_vector"),
    ],
    "data.build": [("harness", "build_datasets")],
    "data.partition": [("harness", "partition_noniid")],
}


class LayerTotals:
    """Per-layer sums over the trees of one root name."""

    def __init__(self):
        self.trees = 0
        self.root_s = 0.0
        self.calls = defaultdict(int)
        self.inclusive_s = defaultdict(float)  # spans not nested in a span of the same name
        self.self_s = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index) of the open tree
        self._stack: list[int] = []
        self.totals: dict[str, LayerTotals] = defaultdict(LayerTotals)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` sees each return value."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if not stack:
                    self._fold()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _fold(self) -> None:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = self.totals[spans[0][0]]
        totals.trees += 1
        totals.root_s += spans[0][2] - spans[0][1]
        for i, (name, start, end, parent) in enumerate(spans):
            totals.calls[name] += 1
            totals.self_s[name] += (end - start) - child_s[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                totals.inclusive_s[name] += end - start
        spans.clear()


def patch(stack: ExitStack, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` (``attr`` may be ``Class.method``) by ``make(original)`` until ``stack`` closes."""
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    stack.enter_context(mock.patch.object(owner, leaf, make(getattr(owner, leaf))))


def patch_layers(stack: ExitStack, modules: dict, tracer: Tracer, on_result: dict) -> None:
    """Wrap every call site in LAYERS; ``on_result`` maps a site to a hook on its return values."""
    for layer, sites in LAYERS.items():
        for module, attr in sites:
            hook = on_result.get((module, attr))
            patch(stack, modules[module], attr, lambda fn, layer=layer, hook=hook: tracer.wrap(layer, fn, hook))


def span_cost_s(samples: int = 5, calls: int = 20000) -> float:
    """Median extra time one traced call adds to its parent span, in seconds."""

    def noop():
        return None

    def loop(fn):
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    tracer = Tracer()
    child = tracer.wrap("calibration", noop)
    root = tracer.wrap("calibration.root", lambda: loop(child))
    costs = sorted((root() - loop(noop)) / calls for _ in range(samples))
    return costs[len(costs) // 2]
