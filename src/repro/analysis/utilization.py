"""Resource utilization of greedy algorithms (paper Section 6).

Theorem 6.2: *every* greedy algorithm for sequential jobs on identical
machines is 3/4-competitive for resource utilization -- the fairness
requirement costs at most 25% of the resources, and Fig. 7's instance shows
the bound is tight.

To check the bound empirically we need the *optimal* completed work by a
time ``T``, maximized over all algorithms.  We compute a certified upper
bound from the preemptive relaxation: jobs may be preempted and migrated
(but a sequential job still occupies at most one machine per slot).  The
relaxation is a transportation problem -- job ``j`` supplies
``min(p_j, T - r_j)`` units, each time slot sinks at most ``m`` units, a job
feeds a slot only if released -- solved exactly as a max-flow on
release-interval-compressed slots.  Every non-preemptive schedule is
feasible in the relaxation, so ``busy / flow_bound >= 3/4`` certifies the
theorem on an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.engine import ClusterEngine
from ..core.job import Job
from ..core.organization import Organization
from ..core.workload import Workload

__all__ = [
    "preemptive_max_units",
    "work_upper_bound",
    "greedy_busy_units",
    "competitive_ratio",
    "figure7_workload",
    "figure7_ratios",
    "random_adversarial_workload",
]


def work_upper_bound(workload: Workload, t: int) -> int:
    """Cheap closed-form bound: ``min(m*T, sum_j min(p_j, T - r_j))``.

    Valid but loose; :func:`preemptive_max_units` is exact for the
    relaxation and should be used for ratio checks.
    """
    m = workload.n_machines
    per_job = sum(min(j.size, max(0, t - j.release)) for j in workload.jobs)
    return min(m * t, per_job)


def preemptive_max_units(workload: Workload, t: int) -> int:
    """Maximum job units any schedule can execute before ``t`` (preemptive
    relaxation, exact).

    Max-flow formulation with slots compressed into the intervals between
    consecutive release times: ``source -> job`` with capacity
    ``min(p_j, t - r_j)``; ``job -> interval`` with capacity = interval
    length (a sequential job uses at most one machine per slot);
    ``interval -> sink`` with capacity ``m * length``.
    """
    # imported here: nothing else in the package uses networkx, and
    # loading it costs every process that imports this module
    import networkx as nx

    m = workload.n_machines
    if m == 0 or t <= 0:
        return 0
    jobs = [j for j in workload.jobs if j.release < t]
    if not jobs:
        return 0
    cuts = sorted({0, t} | {j.release for j in jobs if 0 < j.release < t})
    intervals = list(zip(cuts, cuts[1:]))
    g = nx.DiGraph()
    for idx, j in enumerate(jobs):
        cap = min(j.size, t - j.release)
        if cap <= 0:
            continue
        g.add_edge("s", ("j", idx), capacity=cap)
        for iv, (a, b) in enumerate(intervals):
            if j.release <= a:
                g.add_edge(("j", idx), ("i", iv), capacity=b - a)
    for iv, (a, b) in enumerate(intervals):
        g.add_edge(("i", iv), "t", capacity=m * (b - a))
    if "s" not in g or "t" not in g:
        return 0
    value, _ = nx.maximum_flow(g, "s", "t")
    return int(value)


def greedy_busy_units(
    workload: Workload,
    t: int,
    select: Callable[[ClusterEngine], int],
) -> int:
    """Units executed before ``t`` by the greedy schedule using ``select``."""
    engine = ClusterEngine(workload, horizon=t)
    engine.drive(select, until=t)
    if engine.t < t:
        engine.advance_to(t)
    return engine.busy_units(t)


def competitive_ratio(
    workload: Workload,
    t: int,
    select: Callable[[ClusterEngine], int],
) -> float:
    """``busy(greedy) / preemptive_opt`` at time ``t`` (Theorem 6.2 says
    this is at least 3/4 for every greedy policy)."""
    opt = preemptive_max_units(workload, t)
    if opt == 0:
        return 1.0
    return greedy_busy_units(workload, t, select) / opt


def figure7_workload() -> Workload:
    """The tight instance of Fig. 7.

    Two organizations with 2 machines each (4 total); O(1) has four size-3
    jobs, O(2) two size-6 jobs, all released at 0.  Starting O(2) first
    yields 100% utilization at T=6; starting O(1) first yields 75% -- the
    worst case of Theorem 6.2.
    """
    orgs = [Organization(0, 2), Organization(1, 2)]
    jobs = [Job(0, 0, i, 3) for i in range(4)] + [Job(0, 1, i, 6) for i in range(2)]
    return Workload(orgs, jobs)


def figure7_ratios() -> tuple[float, float]:
    """Utilizations at T=6 of the two greedy tie-breaks of Fig. 7:
    (O(2)-first, O(1)-first) = (1.0, 0.75)."""
    wl = figure7_workload()
    t = 6

    def o2_first(engine: ClusterEngine) -> int:
        waiting = engine.waiting_orgs()
        return 1 if 1 in waiting else waiting[0]

    def o1_first(engine: ClusterEngine) -> int:
        waiting = engine.waiting_orgs()
        return 0 if 0 in waiting else waiting[0]

    cap = wl.n_machines * t
    return (
        greedy_busy_units(wl, t, o2_first) / cap,
        greedy_busy_units(wl, t, o1_first) / cap,
    )


@dataclass(frozen=True)
class _AdversarialSpec:
    n_orgs: int = 2
    n_machines: int = 4
    n_jobs: int = 12
    max_size: int = 12
    max_release: int = 10


def random_adversarial_workload(
    rng: np.random.Generator,
    n_orgs: int = 2,
    n_machines: int = 4,
    n_jobs: int = 12,
    max_size: int = 12,
    max_release: int = 10,
) -> Workload:
    """Random small instances biased toward Fig.-7-like traps: a mix of
    short and long jobs with clustered releases, used by the Theorem 6.2
    stress tests and the utilization-bound benchmark."""
    machines = [n_machines // n_orgs] * n_orgs
    for i in range(n_machines - sum(machines)):
        machines[i % n_orgs] += 1
    orgs = [Organization(i, machines[i]) for i in range(n_orgs)]
    counters = [0] * n_orgs
    jobs = []
    releases = np.sort(rng.integers(0, max_release + 1, size=n_jobs))
    for r in releases:
        u = int(rng.integers(0, n_orgs))
        if rng.uniform() < 0.5:
            size = int(rng.integers(1, max(2, max_size // 3)))
        else:
            size = int(rng.integers(max(1, max_size // 2), max_size + 1))
        jobs.append(Job(int(r), u, counters[u], size))
        counters[u] += 1
    return Workload(orgs, jobs)
