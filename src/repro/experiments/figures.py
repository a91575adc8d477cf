"""The paper's figures: the worked examples (Figs. 2 and 7) and the
organization-count sweep (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.utilization import figure7_ratios
from ..core.job import Job
from ..core.organization import Organization
from ..core.schedule import Schedule, ScheduledJob
from ..core.workload import Workload
from ..utility.classic import flow_time
from ..utility.strategyproof import psi_sp
from .pipeline import run_scenario

__all__ = [
    "Figure2Numbers",
    "figure2_schedule",
    "figure2_numbers",
    "figure7_numbers",
    "figure10",
    "FIGURE10_PAPER_SHAPE",
]


# ----------------------------------------------------------------------
# Figure 2: the worked psi_sp example
# ----------------------------------------------------------------------
def figure2_workload() -> Workload:
    """Fig. 2's instance: nine jobs of O(1), one job of O(2), three
    machines (2 owned by O(1), 1 by O(2) -- ownership is irrelevant to the
    utilities), all released at time 0."""
    orgs = [Organization(0, 2), Organization(1, 1)]
    sizes_o1 = [3, 4, 3, 6, 3, 6, 3, 3, 4]  # J1..J9 of the figure
    jobs = [Job(0, 0, i, p) for i, p in enumerate(sizes_o1)]
    jobs.append(Job(0, 1, 0, 5))  # J^(2)_1
    return Workload(orgs, jobs)


def figure2_schedule() -> Schedule:
    """The exact Fig. 2 schedule (reconstructed to match every number in
    the caption; verified in tests):

    =========  ==========================================
    machine 0  J1 [0,3), J4 [3,9),  J8 [9,12)
    machine 1  J2 [0,4), J6 [4,10), J9 [10,14)
    machine 2  J3 [0,3), J5 [3,6),  J7 [6,9), J(2)1 [9,14)
    =========  ==========================================

    J7 and J8 both have size 3, so their label assignment is cosmetic; we
    order them so FIFO indices follow start order (required for schedule
    feasibility in the model).  Every caption quantity is unaffected.
    """
    wl = figure2_workload()
    by_label = {f"J{i+1}": j for i, j in enumerate(wl.jobs_of(0))}
    j2 = wl.jobs_of(1)[0]
    placements = [
        ("J1", 0, 0),
        ("J2", 0, 1),
        ("J3", 0, 2),
        ("J4", 3, 0),
        ("J5", 3, 2),
        ("J6", 4, 1),
        ("J7", 6, 2),
        ("J8", 9, 0),
        ("J9", 10, 1),
    ]
    entries = [
        ScheduledJob(start, machine, by_label[label])
        for label, start, machine in placements
    ]
    entries.append(ScheduledJob(9, 2, j2))
    return Schedule(entries)


@dataclass(frozen=True)
class Figure2Numbers:
    """Every quantity the Fig. 2 caption reports."""

    psi_o1_t13: int  #: 262 in the paper
    psi_o1_t14: int  #: 297
    flow_time_o1: int  #: 70
    gain_without_j2: int  #: +4 when J9 starts at 9 instead of 10
    loss_j6_late: int  #: -6 when J6 starts one unit later
    loss_drop_j9: int  #: -10 when J9 is not scheduled at all


def figure2_numbers() -> Figure2Numbers:
    """Recompute the Fig. 2 caption quantities from the schedule."""
    sched = figure2_schedule()
    pairs_o1 = sched.org_pairs(0)
    psi13 = psi_sp(pairs_o1, 13)
    psi14 = psi_sp(pairs_o1, 14)
    flow = flow_time(pairs_o1, [0] * len(pairs_o1), 14)

    def replace(pairs, old, new):
        out = list(pairs)
        out[out.index(old)] = new
        return out

    # without J^(2)_1, J9 starts at 9 instead of 10
    gain = psi_sp(replace(pairs_o1, (10, 4), (9, 4)), 14) - psi14
    # J6 (start 4, size 6) started one unit later
    loss_j6 = psi_sp(replace(pairs_o1, (4, 6), (5, 6)), 14) - psi14
    # J9 not scheduled at all
    dropped = [p for p in pairs_o1 if p != (10, 4)]
    loss_j9 = psi_sp(dropped, 14) - psi14
    return Figure2Numbers(
        psi_o1_t13=psi13,
        psi_o1_t14=psi14,
        flow_time_o1=flow,
        gain_without_j2=gain,
        loss_j6_late=loss_j6,
        loss_drop_j9=loss_j9,
    )


# ----------------------------------------------------------------------
# Figure 7: greedy utilization worked example
# ----------------------------------------------------------------------
def figure7_numbers() -> tuple[float, float]:
    """(best, worst) greedy utilization at T=6 on the Fig. 7 instance:
    (1.0, 0.75)."""
    return figure7_ratios()


# ----------------------------------------------------------------------
# Figure 10: unfairness vs number of organizations
# ----------------------------------------------------------------------
#: Qualitative shape of the paper's Fig. 10 (LPC-EGEE): unfairness grows
#: with the number of organizations for every algorithm, and the ordering
#: RoundRobin > CurrFairShare > FairShare > DirectContr > Rand holds.
FIGURE10_PAPER_SHAPE: tuple[str, ...] = (
    "RoundRobin",
    "CurrFairShare",
    "FairShare",
    "DirectContr",
    "Rand(N=15)",
)


def figure10(
    org_counts: "tuple[int, ...] | None" = None, **overrides
) -> tuple[list[int], dict[str, list[float]]]:
    """Regenerate Fig. 10: avg delay vs number of organizations.

    The ``figure10`` scenario: an organization-count sweep of the
    ``churn`` family with common-random-numbers windows (each repeat fixes
    one trace window and reuses it for every organization count, so the
    k-trend is not swamped by window-to-window load variance; the paper
    instead averages 100 windows per point).  ``overrides`` are
    :func:`~repro.experiments.pipeline.run_scenario` keywords: spec
    fields, or ``workers``/``cache_dir``/... for the pipeline.

    REF's cost is Theta(3^k) per event, so the default sweep stops at 6
    organizations; pass ``org_counts=(2,...,10)`` (and patience) for the
    paper's full range.

    Returns ``(xs, {algorithm: [avg delay per x]})`` for the spec's first
    trace.
    """
    result = run_scenario("figure10", org_counts=org_counts, **overrides)
    xs = list(result.spec.org_counts)
    trace = result.spec.traces[0]
    series = {
        alg: [
            result.mean_std(trace, alg, variant=(("n_orgs", k),))[0]
            for k in xs
        ]
        for alg in result.algorithms()
    }
    return xs, series
