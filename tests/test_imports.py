"""Every name a ``flrlab`` module imports is used in that module.

Two kinds of import are exempt: the re-exports of ``flrlab/__init__.py``,
and names imported only so that ``perfbench/tracer.py`` can patch them as
call sites of the importing module (its ``LAYERS``)."""

import ast
from pathlib import Path

import pytest

from test_benchmark_sites import traced_sites

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flrlab"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def unused_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def tracer_sites(module: str) -> set[str]:
    return {attr.split(".")[0] for _, owner, attr in traced_sites() if owner == module}


def test_every_module_is_checked():
    assert {"harness", "models", "attacks", "defenses"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imported_names_are_used_or_patched_by_the_tracer(module):
    assert unused_imports(module) - tracer_sites(module) == set()


def test_tracer_only_imports_are_the_known_ones():
    # the imports whose only use is as a tracer call site; they go once the tracer stops patching names
    tracer_only = {(module, name) for module in MODULES for name in unused_imports(module)}
    assert tracer_only == {
        ("harness", "mean"),
        ("harness", "median"),
        ("harness", "trimmed_mean"),
        ("defenses", "aggregate"),
        ("defenses", "error_rate"),
        ("defenses", "loss"),
    }


def test_init_imports_only_what_it_exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and any(t.id == "__all__" for t in node.targets))
    assert imported <= set(exported)
