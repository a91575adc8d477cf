"""The repo's benchmark: one command, six workloads, layer by layer.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py [--seed N] [--trace 1] [--quick] --out FILE   # all six

A run starts three fresh child processes one after the other.  Each
imports, builds the inputs from the seed and then repeats the timed
region, every pass on a fresh target with its first ticks untimed,
until its share of ``--seconds`` is spent; the parent computes the
reference digest once and compares it with every pass's.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (one
untraced and one traced child, each variant of the workload's depth
ladder, and the isolated probes).  The last line
of standard output is the result object; ``--out`` also writes the full
record (environment stamp, samples, ladder, ``probe_missing``) that
``perf/check.py`` compares.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import SAME_SCHEDULE, per_layer, percentile

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
CHILDREN = 3  # fresh processes per run, each repeating the timed region
QUICK_CHILDREN = 2
TRACE_BUDGET_S = 2.0  # timed seconds of each untraced child of a traced run


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# child: the passes of one variant, or the probes, in a fresh process
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Largest resident set in this process's tree: own high-water mark
    from /proc (``ru_maxrss`` of an exec'd child starts at its parent's)
    and the largest waited-for descendant."""
    own_kb = 0
    with open("/proc/self/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                own_kb = int(line.split()[1])
    tree_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, tree_kb) / 1024.0


def cpu_seconds() -> "tuple[float, float]":
    """User+sys CPU so far of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    tree = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, tree.ru_utime + tree.ru_stime


def child_main(args) -> int:
    from tracing import CallCounter, Spans
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    t0 = time.perf_counter()
    inp = w.inputs(args.seed, args.quick)
    generate_s = time.perf_counter() - t0
    if args.child == "probes":
        from probes import run_probes

        metrics, missing = run_probes(w, inp, workdir)
        print(json.dumps({"metrics": metrics, "probe_missing": missing}))
        return 0
    rec = Spans() if args.traced else None
    counter = CallCounter() if args.variant == "calls" else None
    # passes of the timed region, each on a fresh target, until the
    # budget of timed seconds is spent; a traced or counted run is one
    passes = []
    spent = 0.0
    while True:
        gc.collect()  # every pass starts from the same collector state
        own0, tree0 = cpu_seconds()
        one = w.run(inp, workdir, rec, args.variant, counter)
        own1, tree1 = cpu_seconds()
        one["workers_cpu_s"] = tree1 - tree0
        one["cpu_s"] = own1 - own0 + tree1 - tree0
        if not passes:
            # start of this process (the parent's monotonic stamp) to the
            # first timed op
            setup_s = (time.monotonic() - args.t0) - (
                time.perf_counter() - one["started"]
            )
        passes.append(one)
        spent += one["wall_s"]
        if rec is not None or counter is not None or spent >= args.budget:
            break
    out = min(passes, key=lambda r: r["wall_s"])  # stands for the child
    del out["started"]
    out["passes"] = [
        {k: r[k] for k in ("n_events", "failed", "digest", "wall_s",
                           "tick_ms", "gap_ms")}
        for r in passes
    ]
    out["setup_s"] = setup_s
    out["generate_s"] = generate_s
    out["peak_rss_mb"] = peak_rss_mb()
    if rec is not None:
        out["spans"] = rec.summary()
        out["span_coverage"] = rec.coverage(out["wall_s"])
        if args.spans_out:
            rec.write(args.spans_out)
    if counter is not None:
        out["calls"] = {"py": counter.py, "c": counter.c}
    print(json.dumps(out))
    return 0


def spawn(mode: str, w, args, workdir: Path, variant="", traced=False,
          budget=0.0) -> dict:
    """Run one child to completion and return its result object.  The
    child repeats the timed region until ``budget`` timed seconds are
    spent (once if 0)."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(PERF)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(PERF / "run.py"), "--child", mode,
        "--workload", w.name, "--seed", str(args.seed),
        "--workdir", str(workdir), "--variant", variant,
        "--budget", repr(budget), "--t0", repr(time.monotonic()),
    ]
    if args.quick:
        cmd.append("--quick")
    if traced:
        cmd.append("--traced")
        if args.out:
            cmd += ["--spans-out", str(trace_path(args.out, w.name))]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return {"crashed": proc.returncode}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_path(out: str, workload: str) -> Path:
    out_path = Path(out)
    return out_path.with_name(f"{out_path.stem}.{workload}.trace.jsonl")


# ----------------------------------------------------------------------
# parent: reference, children, aggregation
# ----------------------------------------------------------------------
def n_children(args) -> int:
    if args.reps:
        return args.reps
    return QUICK_CHILDREN if args.quick else CHILDREN


def passes_of(children: "list[dict]") -> "list[dict]":
    """Every pass of every child; a crashed child counts as one pass."""
    return [p for c in children for p in c.get("passes", [c])]


def verdict(children: "list[dict]", reference: str) -> dict:
    """Ops attempted and failed over all passes.  A crashed child or a
    pass whose output differs from the reference fails whole; so does one
    whose event count differs from the first."""
    passes = passes_of(children)
    sizes = [p["n_events"] for p in passes if "n_events" in p]
    attempted = failed = 0
    for p in passes:
        n = p.get("n_events", sizes[0] if sizes else 1)
        attempted += n
        wrong = (
            "crashed" in p or p["digest"] != reference or n != sizes[0]
        )
        failed += n if wrong else p["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


def undisturbed(passes: "list[dict]", key: str) -> "list[float]":
    """Each tick's (or gap's) time as the minimum over the passes.  The
    program is deterministic, so what differs between passes at one tick
    is interference from outside it; what the program itself causes there
    (a flush, a grown journal, a checkpoint) recurs in every pass and
    stays in the minimum."""
    return [min(col) for col in zip(*(p[key] for p in passes))]


def timings(passes: "list[dict]") -> dict:
    """The timing metrics over ``passes``: tick percentiles over the
    undisturbed ticks, throughput over their sum plus the undisturbed
    time between ticks."""
    ticks = undisturbed(passes, "tick_ms")
    wall_ms = sum(ticks) + sum(undisturbed(passes, "gap_ms"))
    return {
        "events_per_s": passes[0]["n_events"] * 1e3 / wall_ms,
        "tick_p50_ms": percentile(ticks, 0.50),
        "tick_p90_ms": percentile(ticks, 0.90),
    }


def end_to_end(children: "list[dict]") -> "tuple[dict, dict]":
    """The end-to-end values of one run, and one sample per child.

    Timings take the least disturbed observation over all passes of all
    children (a child's sample: over its own passes).  Set-up time and
    memory are medians over the children."""
    good = [c for c in children if "crashed" not in c]
    per_child = [
        {"setup_s": c["setup_s"], "peak_rss_mb": c["peak_rss_mb"],
         **timings(c["passes"])}
        for c in good
    ]
    samples = {k: [row[k] for row in per_child] for k in per_child[0]}
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        **timings(passes_of(good)),
    }
    return values, samples


def measure_end_to_end(w, args, workdir, reference) -> "tuple[dict, dict]":
    n = n_children(args)
    budget = 0.0 if args.quick else args.seconds / n
    children = [spawn("rep", w, args, workdir, budget=budget) for _ in range(n)]
    if all("crashed" in c for c in children):
        raise SystemExit(f"{w.name}: every child crashed")
    record = verdict(children, reference)
    values, record["samples"] = end_to_end(children)
    passes = passes_of(children)
    record["n_events"] = [p.get("n_events") for p in passes]
    record["n_passes"] = len(passes)
    record["n_ticks"] = len(passes[0].get("tick_ms", ()))
    return record, values


def measure_per_layer(w, args, workdir, reference, inp) -> "tuple[dict, dict]":
    # the fastest pass stands for each untraced child; one shorter than
    # the budget (FIFO on the REF stream takes 30 ms) is repeated
    budget = 0.0 if args.quick else TRACE_BUDGET_S
    plain = spawn("rep", w, args, workdir, budget=budget)
    traced = spawn("rep", w, args, workdir, traced=True)
    variants = {
        v: spawn("rep", w, args, workdir, variant=v, budget=budget)
        for v in w.variants
    }
    probes = spawn("probes", w, args, workdir)
    crashed = [v for v, r in {"": plain, "traced": traced, **variants,
                              "probes": probes}.items() if "crashed" in r]
    if crashed:
        raise SystemExit(f"{w.name}: traced run crashed in {crashed}")
    record = verdict([plain, traced], reference)
    for name in SAME_SCHEDULE:  # other routes to the same schedule
        if name in variants:
            extra = verdict([variants[name]], reference)
            record["attempted"] += extra["attempted"]
            record["failed"] += extra["failed"]
            record["correct"] = record["correct"] and extra["correct"]
    record["n_events"] = [p["n_events"] for p in passes_of([plain, traced])]
    record["probe_missing"] = probes["probe_missing"]
    record["calls"] = variants.get("calls", {}).get("calls")
    record["spans"] = traced["spans"]
    return record, per_layer(w, inp, plain, traced, variants, probes["metrics"])


def measure(w, args, spec: dict) -> dict:
    """Run one workload; returns its record of the result file."""
    inp = w.inputs(args.seed, args.quick)
    reference = w.reference(inp)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            record, values = measure_per_layer(w, args, workdir, reference, inp)
        else:
            record, values = measure_end_to_end(w, args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["sizes"] = inp["sizes"]
    record["reference"] = reference
    record["metrics"] = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    return record


def result_line(record: dict) -> str:
    """The contract's result object.  A per-layer metric of a layer this
    workload does not exercise, or whose probe target is gone, reads 0.0
    here; the ``--out`` record keeps ``null`` and the reason."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": 0.0 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def environment(args) -> dict:
    import numpy

    commit = "unknown"  # not a git checkout, or no git
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps or None,
        "quick": args.quick,
        "trace": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="override the number of child processes")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes, 2 children of one pass")
    parser.add_argument("--out", help="write the full record here")
    for hidden in ("--child", "--workdir", "--variant", "--spans-out"):
        parser.add_argument(hidden, default="", help=argparse.SUPPRESS)
    for hidden in ("--t0", "--budget"):
        parser.add_argument(hidden, type=float, default=0.0,
                            help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "api.py").is_file():
        print(f"perf/run.py: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(PERF)]
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; have {sorted(WORKLOADS)}")
    env = environment(args)
    short = [n for n in names if WORKLOADS[n].min_cores > env["nproc"]]
    if short:
        print(f"perf/run.py: {short} need 2 cores for n_workers=2, have "
              f"{env['nproc']}", file=sys.stderr)
        return 2
    if env["loadavg_1m"] > 0.5 * env["nproc"]:
        print(f"perf/run.py: warning: load average {env['loadavg_1m']:.2f} on "
              f"{env['nproc']} cores; timings will be noisy", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    result = {"environment": env, "workloads": {}}
    for name in names:
        record = measure(WORKLOADS[name], args, spec)
        result["workloads"][name] = record
        print(result_line(record), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
