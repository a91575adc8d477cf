"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import Job
from repro.core.organization import Organization
from repro.core.workload import Workload


def make_workload(
    machine_counts: list[int],
    job_tuples: list[tuple[int, int, int]],
) -> Workload:
    """Build a workload from (release, org, size) triples.

    FIFO indices are assigned per organization in the listed order (releases
    must therefore be non-decreasing per organization).
    """
    orgs = [Organization(i, m) for i, m in enumerate(machine_counts)]
    counters = [0] * len(machine_counts)
    jobs = []
    for release, org, size in job_tuples:
        jobs.append(Job(release, org, counters[org], size))
        counters[org] += 1
    return Workload(orgs, jobs)


def random_workload(
    rng: np.random.Generator,
    n_orgs: int = 3,
    n_jobs: int = 30,
    max_release: int = 20,
    sizes: tuple[int, ...] = (1, 2, 3, 5),
    machine_counts: list[int] | None = None,
) -> Workload:
    """A random valid workload (per-org releases sorted to satisfy FIFO)."""
    if machine_counts is None:
        machine_counts = [1 + int(rng.integers(0, 3)) for _ in range(n_orgs)]
    per_org_releases: dict[int, list[int]] = {u: [] for u in range(n_orgs)}
    for _ in range(n_jobs):
        u = int(rng.integers(0, n_orgs))
        per_org_releases[u].append(int(rng.integers(0, max_release + 1)))
    triples = []
    for u, rels in per_org_releases.items():
        for r in sorted(rels):
            triples.append((r, u, int(rng.choice(sizes))))
    return make_workload(machine_counts, triples)


def as_version_1(snap: dict) -> dict:
    """``snap`` (a version-2 service snapshot) re-laid-out in place as the
    retired version 1 -- one ``{"kind", "time", name: value...}`` dict per
    op -- and correctly re-hashed, so only the version gate can refuse it."""
    from repro.service.snapshot import content_hash
    from repro.service.state import OP_FIELDS

    snap["version"] = 1
    snap["journal"] = [
        {"kind": kind, "time": clock, **dict(zip(OP_FIELDS[kind], values))}
        for kind, clock, *values in snap["journal"]
    ]
    snap["content_hash"] = content_hash(snap)
    return snap


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_workload() -> Workload:
    """2 orgs x 1 machine; 3 + 2 small jobs, all released early."""
    return make_workload(
        [1, 1],
        [(0, 0, 2), (0, 0, 1), (1, 0, 3), (0, 1, 2), (2, 1, 2)],
    )


@pytest.fixture
def fig7() -> Workload:
    """The Fig. 7 tight instance (4 machines, 4x size-3 + 2x size-6)."""
    return make_workload(
        [2, 2],
        [(0, 0, 3)] * 4 + [(0, 1, 6)] * 2,
    )
