"""In-memory spans and exact call counts, recorded from outside ``src/``.

A span is ``(name, start, end, parent, tick)``; ``parent`` is the index of
the enclosing span or ``None``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


class Spans:
    def __init__(self) -> None:
        self.rows: "list[list]" = []

    def add(self, name, start, end, parent, tick) -> None:
        self.rows.append([name, start, end, parent, tick])

    def open(self, name, tick) -> int:
        self.rows.append([name, clock(), None, None, tick])
        return len(self.rows) - 1

    def close(self, index: int) -> float:
        row = self.rows[index]
        row[2] = clock()
        return row[2] - row[1]

    def summary(self) -> "dict[str, dict]":
        """Per span name: count, total seconds and self seconds (duration
        minus the part its child spans cover)."""
        child_s = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent is not None:
                child_s[parent] += end - start
        out: "dict[str, dict]" = {}
        for (name, start, end, _, _), covered in zip(self.rows, child_s):
            cell = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            cell["n"] += 1
            cell["total_s"] += end - start
            cell["self_s"] += end - start - covered
        return out

    def coverage(self, wall_s: float) -> float:
        """Share of the timed wall inside top-level spans."""
        top = sum(r[2] - r[1] for r in self.rows if r[3] is None)
        return top / wall_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, tick in self.rows:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "tick": tick,
                }) + "\n")


class CallCounter:
    """Exact counts of Python and C calls made while active, through
    ``sys.setprofile``; a count, never a timing."""

    def __init__(self) -> None:
        self.py = 0
        self.c = 0

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            self.py += 1
        elif event == "c_call":
            self.c += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
