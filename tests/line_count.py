"""Print the line counts of ``src/flrlab``: total, code, docstring, comment and blank.

    python tests/line_count.py [package directory]

Counted with ``ast``: the lines of a module, class or function docstring
(blank lines inside it included) are docstring lines; of the rest, a line
holding only a comment is a comment line, an empty one a blank line, and any
other a code line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flrlab"


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(package: Path) -> dict[str, int]:
    totals = dict.fromkeys(("lines", "code", "docstring", "comment", "blank"), 0)
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docs = docstring_lines(ast.parse(text))
        for number, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            kind = ("docstring" if number in docs else "blank" if not stripped
                    else "comment" if stripped.startswith("#") else "code")
            totals["lines"] += 1
            totals[kind] += 1
    return totals


if __name__ == "__main__":
    for name, value in count(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE).items():
        print(f"{name:10s} {value}")
