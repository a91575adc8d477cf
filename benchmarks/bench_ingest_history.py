"""Online-ingest history guard (ISSUE 12; DESIGN.md §9.2).

A REF service must not get dearer per tick as its history grows.  It
did: the kernel's start log named a started job by its flat stream
position, so every ingest flush re-indexed the whole log -- one entry
per started job per coalition row, 255 rows x 1 800 jobs by the end of
this stream -- and a tick of the last quarter cost twice a tick of the
first.  The log now names the job by (org, rank in the org's stream),
which no splice can move, and ingest does not touch it (0.96x).

The guard is about history, not speed: the same service is timed against
its own early ticks on the machine running it.  Each tick counts at its
minimum over the passes, so a disturbed tick (or the first pass filling
the plan caches) drops out while whatever the program causes at that
point of the stream recurs in every pass and stays in.
"""

from __future__ import annotations

import time
from itertools import groupby

import numpy as np
import pytest

from repro.service import ClusterService

from .conftest import service_workload

MACHINES = (2, 1, 1, 1, 1, 1, 1, 1)
N_JOBS = 1800
PASSES = 3
#: last-quarter mean tick over first-quarter mean tick
MAX_GROWTH = 1.3


def tick_seconds(ticks) -> "list[float]":
    """One closed-loop pass: per tick, submit its jobs and advance to it."""
    svc = ClusterService(MACHINES, "ref", seed=0)
    out = []
    for t, jobs in ticks:
        t0 = time.perf_counter()
        for job in jobs:
            svc.submit_job(job)
        svc.advance(t)
        out.append(time.perf_counter() - t0)
    backend = svc.status()["policy_backend"]
    assert backend["backend"] == "kernel", backend  # the path under guard
    assert backend["start_log_entries"] > 100 * N_JOBS  # history did build up
    return out


def test_tick_cost_does_not_grow_with_history(benchmark):
    # a stationary stream law (arrival rate and job sizes do not change
    # along the stream), so history is the only thing that grows
    stream = sorted(service_workload(MACHINES, N_JOBS).jobs)
    ticks = [
        (t, list(group)) for t, group in groupby(stream, key=lambda j: j.release)
    ]
    best = np.min([tick_seconds(ticks) for _ in range(PASSES)], axis=0)
    quarter = len(best) // 4
    first = float(best[:quarter].mean())
    last = float(best[-quarter:].mean())
    benchmark.extra_info.update(
        {"first_quarter_ms": first * 1e3, "last_quarter_ms": last * 1e3,
         "growth": last / first}
    )
    benchmark(lambda: None)  # timings recorded above; keep the fixture happy
    assert last <= MAX_GROWTH * first, (
        f"REF tick cost grows with history: last quarter {last * 1e3:.3f} ms "
        f"vs first quarter {first * 1e3:.3f} ms ({last / first:.2f}x, "
        f"limit {MAX_GROWTH}x)"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
