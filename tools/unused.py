"""Which imports and locals are never used?

Walks the ``ast`` of every ``.py`` file under ``src/``, ``tests/``,
``tools/`` and ``benchmarks/`` and fails on a name bound by an
``import`` that the module never reads: not as a name, not as the root
of an attribute, not inside a string that parses as an expression (a
quoted annotation or type alias, an ``__all__`` entry).  Re-exports are
uses: every import in an ``__init__.py``, and every name a module's
``__all__`` lists.  ``from __future__`` imports are directives, not
bindings.

It fails too on a function local that is assigned (``x = ...``,
``x: T = ...``, ``x += ...``, ``(x := ...)``) and never read anywhere
in the function, its nested functions included.  Tuple-unpack targets,
``_``-prefixed names and ``global``/``nonlocal`` names are not checked.

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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s own scope: nested defs, lambdas and classes
    are yielded but not entered."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> dict[str, int]:
    """``{name: line}`` of every single-name local assigned in a function
    and read nowhere in it."""
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, int] = {}
        declared: set[str] = set()
        for node in own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
            ):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("_"):
                    first = min(t.lineno, assigned.get(t.id, t.lineno))
                    assigned[t.id] = first
        reads = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        for name, line in assigned.items():
            if name not in reads and name not in declared:
                out[f"{fn.name}.{name}"] = line
    return out


def unused(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    found = unread_locals(tree)
    if path.name != "__init__.py":  # an import there is the package's surface
        reads = used(tree)
        found.update(
            (name, line)
            for name, line in imported(tree).items()
            if name not in reads
        )
    return [
        f"{name}:{line}"
        for name, line in sorted(found.items(), key=lambda x: x[1])
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
        print(f"unused imports or locals in {failed} file(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
