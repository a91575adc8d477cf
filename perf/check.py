"""Compare two result files of perf/run.py under BENCHMARK.json's bounds.

    python3 perf/check.py A.json B.json

A is the base (the parent commit, or the first of two runs of one
commit); every ratio is B over A.  One row per (workload, metric):

* ``REGRESSION``  B's median is worse than A's by more than the bound;
* ``unresolved``  it is not, but the spread between the children of A or
  of B (each child a fresh process with its own passes) is wider than the
  bound, and B's children are not all better than all of A's: the runs
  cannot tell;
* ``ok``          otherwise.

Per-layer metrics have no bound and get no verdict.  Exits 1 on any
regression or any failed op in either file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(samples: "list[float]", median: float) -> float:
    return (max(samples) - min(samples)) / abs(median) if median else 0.0


def judge(metric: dict, a: dict, b: dict, name: str) -> str:
    """Verdict for one end-to-end metric of one workload."""
    va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if sign * (vb - va) / abs(va) > metric["bound"]:
        return "REGRESSION"
    sa, sb = a["samples"][name], b["samples"][name]
    all_better = (
        max(sb) < min(sa) if metric["better"] == "lower" else min(sb) > max(sa)
    )
    noisy = max(spread(sa, va), spread(sb, vb)) > metric["bound"]
    return "unresolved" if noisy and not all_better else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_file, b_file = (
        json.loads(Path(p).read_text(encoding="utf-8")) for p in argv
    )
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    bad = False
    print(f"base A = {argv[0]}; ratio = B / A")
    print(f"{'workload':22} {'metric':38} {'A':>12} {'B':>12} {'B/A':>7}  "
          f"{'bound':>5}  verdict")
    for name in a_file["workloads"]:
        a, b = a_file["workloads"][name], b_file["workloads"].get(name)
        if b is None:
            continue
        for side, rec in (("A", a), ("B", b)):
            if rec["failed"]:
                bad = True
                print(f"{name:22} {rec['failed']} of {rec['attempted']} ops "
                      f"failed in {side}")
        for metric, cell in a["metrics"].items():
            va, vb = cell["value"], b["metrics"].get(metric, {}).get("value")
            if va is None or vb is None:
                continue
            verdict, bound = "-", ""
            if metric in bounded:
                verdict = judge(bounded[metric], a, b, metric)
                bound = f"{bounded[metric]['bound']:.2f}"
                bad |= verdict == "REGRESSION"
            ratio = f"{vb / va:7.3f}" if va else "      -"
            print(f"{name:22} {metric:38} {va:12.5g} {vb:12.5g} {ratio}  "
                  f"{bound:>5}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
