"""Which functions does tier-1 never call?

Runs the test suite in-process under a call trace (``sys.settrace``, call
events only) and compares the functions it entered with the ``def``s of
``src/repro``.  Every concrete def is gated: one that no test calls
fails the run, so a dead helper cannot land unnoticed and every user
path is a tested one.  Two kinds of def are exempt:

* ``@abstractmethod`` bodies are declarations, not paths;
* the ``CHILD_ONLY`` defs run only in a child process, where the trace
  cannot see them (a test still runs each one there).  An entry that
  names no def, or a def the trace does see, fails the run, so the list
  cannot rot.

    PYTHONPATH=src python tools/untraced.py [pytest args...]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Callable

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(file under src/repro, def)`` pairs that run only in a child process.
CHILD_ONLY = (
    # a pool worker's shard loop (run_pipeline with workers > 1)
    ("experiments/pipeline.py", "_run_shard"),
    # a gateway worker's fault hooks (chaos runs)
    ("gateway/faults.py", "bind_output"),
    ("gateway/faults.py", "after_reply"),
    ("gateway/faults.py", "take_torn_checkpoint"),
    ("gateway/faults.py", "_hard_exit"),
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


def traced(run: Callable[[], object], prefix: str):
    """``(run(), {(file, first line)} of every code object under ``prefix``
    that ``run`` entered)``.  A tracer already installed is put back."""
    called: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        return None  # call events only: no per-line tracing

    outer, outer_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(outer)
        threading.settrace(outer_threads)
    return result, called


def report(
    root: Path,
    called: "set[tuple[str, int]]",
    child_only: "tuple[tuple[str, str], ...]" = CHILD_ONLY,
) -> list[str]:
    """One ``FAIL`` line per file under ``root`` with a def not in
    ``called``, and one per stale ``child_only`` entry."""
    lines = []
    seen = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        missing = []
        for line, name in sorted(defined(path).items()):
            hit = (str(path), line) in called
            if (rel, name) in child_only:
                seen.add((rel, name))
                if hit:
                    lines.append(f"FAIL CHILD_ONLY {rel}: {name} runs in-process")
            elif not hit:
                missing.append(f"{name}:{line}")
        if missing:
            lines.append(f"FAIL {rel}: {', '.join(missing)}")
    lines.extend(
        f"FAIL CHILD_ONLY {rel}: no def {name}"
        for rel, name in sorted(set(child_only) - seen)
    )
    return lines


def main(argv: list[str]) -> int:
    rc, called = traced(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", *argv]), str(SRC)
    )
    failed = report(SRC, called)
    for line in failed:
        print(line)
    if rc:
        print(f"pytest exited {rc}: the trace is incomplete")
        return int(rc)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
