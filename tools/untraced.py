"""Which functions does tier-1 never call?

Runs the test suite in-process under a call trace (``sys.settrace``, call
events only) and compares the functions it entered with the ``def``s of
``src/repro``.  Report-only for the package as a whole, but a function
defined in one of the ``GATED`` files (the REF event bodies, the
Shapley solver, the coalition kernel and its engine views, the service
with its policy adapters, its journal and its snapshot format) that no
test calls fails the run: every REF path, every kernel pass, every ingest
method and every checkpoint helper is a tested one.  ``@abstractmethod``
bodies are declarations, not paths, and are skipped.

    PYTHONPATH=src python tools/untraced.py [pytest args...]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GATED = (
    "algorithms/ref.py",
    "algorithms/multiref.py",
    "shapley/vectorized.py",
    "core/kernel.py",
    "service/service.py",
    "service/state.py",
    "service/snapshot.py",
)


def is_abstract(node: ast.FunctionDef) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
        for d in node.decorator_list
    )


def defined(path: Path) -> dict[int, str]:
    """``{first line (decorators included): name}`` of every concrete def
    in ``path`` -- the line a code object reports as ``co_firstlineno``."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and not is_abstract(node):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            out[first] = node.name
    return out


def main(argv: list[str]) -> int:
    called: set[tuple[str, int]] = set()
    prefix = str(SRC)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        return None  # call events only: no per-line tracing

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    failed = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        missing = [
            f"{name}:{line}"
            for line, name in sorted(defined(path).items())
            if (str(path), line) not in called
        ]
        if missing:
            gate = rel in GATED
            print(f"{'FAIL' if gate else 'note'} {rel}: {', '.join(missing)}")
            if gate:
                failed.append(rel)
    if rc:
        print(f"pytest exited {rc}: the trace is incomplete")
        return int(rc)
    if failed:
        print(f"untested functions in gated files: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
