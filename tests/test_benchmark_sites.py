"""The benchmark's tracer patches flrlab call sites by name; a rename that
drops one would only show when someone runs ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_sites() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, module, attr) for layer, sites in tracer.LAYERS.items() for module, attr in sites]


@pytest.mark.parametrize("layer, module, attr", traced_sites())
def test_traced_call_site_resolves(layer, module, attr):
    owner = importlib.import_module(f"flrlab.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{layer}: flrlab.{module}.{attr} is not callable"
