"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and prints
it in the paper's layout next to the published values (EXPERIMENTS.md keeps
the persistent record).  Default parameters are scaled for laptop runs; set

    REPRO_BENCH_SCALE=full

to use the paper's full-size durations and repetition counts (hours of CPU).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.job import Job
from repro.core.organization import Organization
from repro.core.workload import Workload

FULL = os.environ.get("REPRO_BENCH_SCALE", "quick").lower() == "full"


@pytest.fixture(scope="session")
def bench_mode() -> str:
    return "full" if FULL else "quick"


def once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark.

    Table/figure regenerations take seconds to minutes; statistical timing
    repetition is meaningless at that scale, so each runs a single round.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def service_workload(
    machine_counts: "tuple[int, ...]", n_jobs: int, seed: int = 0
) -> Workload:
    """A bursty multi-org stream sized for sustained-throughput timing:
    0-2 time units between arrivals, a uniform org per job, sizes 1-5."""
    rng = np.random.default_rng(seed)
    k = len(machine_counts)
    orgs = [Organization(i, m) for i, m in enumerate(machine_counts)]
    releases: dict[int, list[int]] = {u: [] for u in range(k)}
    t = 0
    for _ in range(n_jobs):
        t += int(rng.integers(0, 3))
        releases[int(rng.integers(0, k))].append(t)
    jobs = []
    for u, rels in releases.items():
        for i, r in enumerate(sorted(rels)):
            jobs.append(Job(r, u, i, int(rng.integers(1, 6)), id=-1))
    return Workload(orgs, jobs)
