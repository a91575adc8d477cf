"""Which imports are never used?

Walks the ``ast`` of every ``.py`` file under ``src/``, ``tests/``,
``tools/`` and ``benchmarks/`` and fails on a name bound by an
``import`` that the module never reads: not as a name, not as the root
of an attribute, not inside a string that parses as an expression (a
quoted annotation or type alias, an ``__all__`` entry).  Re-exports are
uses: every import in an ``__init__.py``, and every name a module's
``__all__`` lists.  ``from __future__`` imports are directives, not
bindings.

    python tools/unused.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "tools", "benchmarks")


def imported(tree: ast.Module) -> dict[str, int]:
    """``{bound name: line}`` of every import binding in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def used(tree: ast.AST) -> set[str]:
    """Every name the module reads, in code or in a string that parses as
    an expression."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= used(ast.parse(node.value.strip(), mode="eval"))
            except (SyntaxError, ValueError):
                pass  # prose
    return names


def unused(path: Path) -> list[str]:
    if path.name == "__init__.py":
        return []  # an import there is the package's surface
    tree = ast.parse(path.read_text())
    reads = used(tree)
    return [
        f"{name}:{line}"
        for name, line in sorted(imported(tree).items(), key=lambda x: x[1])
        if name not in reads
    ]


def main() -> int:
    failed = 0
    for d in DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            names = unused(path)
            if names:
                failed += 1
                rel = path.relative_to(ROOT).as_posix()
                print(f"FAIL {rel}: {', '.join(names)}")
    if failed:
        print(f"unused imports in {failed} file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
