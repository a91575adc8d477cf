"""Executable forms of the Section 4 axioms and workload manipulations.

The paper restricts fair utilities with three axioms:

1. **Task anonymity (starting times)** -- starting any task one slot earlier
   is equally (and positively) profitable, independent of the rest of the
   schedule and of the task identity:
   ``psi(sigma + {(s,p)}) - psi(sigma + {(s+1,p)})`` is a positive constant
   across sigma, s, p-fixed.
2. **Task anonymity (number of tasks)** -- adding a completed task of a given
   shape is equally profitable in every schedule.
3. **Strategy-resistance** -- merging/splitting back-to-back jobs leaves the
   utility unchanged:
   ``psi(sigma + {(s,p1)}) + psi(sigma + {(s+p1,p2)}) = psi(sigma + {(s,p1+p2)})``
   (note the sigma-relative form: the paper states it with a shared base
   schedule; since utilities in this model are sums over jobs, this reduces
   to per-job additivity).

These checkers are used by the hypothesis test-suite (which proves
:math:`\\psi_{sp}` satisfies all three and that flow time / completed-count
break them) and by the ``strategyproofness.py`` example.
"""

from __future__ import annotations

from typing import Sequence

from ..core.job import Job
from ..core.workload import Workload
from .base import Pairs, UtilityFunction

__all__ = [
    "check_start_time_anonymity",
    "check_task_count_anonymity",
    "check_merge_split_invariance",
    "delay_never_profitable",
    "apply_split",
    "apply_merge",
    "apply_delay",
]


def check_start_time_anonymity(
    utility: UtilityFunction,
    base_a: Pairs,
    base_b: Pairs,
    t: int,
    *,
    s_a: int,
    s_b: int,
    p: int,
) -> bool:
    """Axiom 1 on two concrete contexts.

    Requires ``s_a, s_b <= t - 1``: the unit-shift gain of a ``p``-sized task
    must be the same positive number in schedule ``base_a`` at start ``s_a``
    as in ``base_b`` at ``s_b``.
    """
    if s_a > t - 1 or s_b > t - 1:
        raise ValueError("axiom 1 is stated for starts <= t-1")
    gain_a = utility.value([*base_a, (s_a, p)], t) - utility.value(
        [*base_a, (s_a + 1, p)], t
    )
    gain_b = utility.value([*base_b, (s_b, p)], t) - utility.value(
        [*base_b, (s_b + 1, p)], t
    )
    return gain_a == gain_b and gain_a > 0


def check_task_count_anonymity(
    utility: UtilityFunction,
    base_a: Pairs,
    base_b: Pairs,
    t: int,
    *,
    s: int,
    p: int,
) -> bool:
    """Axiom 2 on two concrete contexts: adding the task ``(s, p)`` is
    equally and positively profitable in both base schedules."""
    if s > t - 1:
        raise ValueError("axiom 2 is stated for starts <= t-1")
    gain_a = utility.value([*base_a, (s, p)], t) - utility.value(base_a, t)
    gain_b = utility.value([*base_b, (s, p)], t) - utility.value(base_b, t)
    return gain_a == gain_b and gain_a > 0


def check_merge_split_invariance(
    utility: UtilityFunction,
    base: Pairs,
    t: int,
    *,
    s: int,
    p1: int,
    p2: int,
) -> bool:
    """Axiom 3: running ``(s, p1)`` then ``(s+p1, p2)`` back-to-back is worth
    exactly as much as the merged job ``(s, p1+p2)``."""
    lhs = (
        utility.value([*base, (s, p1)], t)
        + utility.value([*base, (s + p1, p2)], t)
        - utility.value(base, t)  # the base is counted twice on the lhs
    )
    rhs = utility.value([*base, (s, p1 + p2)], t)
    return lhs == rhs


def delay_never_profitable(
    utility: UtilityFunction, base: Pairs, t: int, *, s: int, p: int
) -> bool:
    """Derived property: delaying a start strictly reduces the utility
    (consequence of axiom 1, noted under strategy-resistance in Section 4)."""
    if s + 1 > t - 1:
        return True  # the delayed copy has no executed parts to compare
    return utility.value([*base, (s, p)], t) > utility.value(
        [*base, (s + 1, p)], t
    )


# ----------------------------------------------------------------------
# Workload manipulations (the strategic moves of Section 4)
# ----------------------------------------------------------------------
def apply_split(
    workload: Workload, org: int, job_index: int, sizes: Sequence[int]
) -> Workload:
    """Return the workload where one organization split one job into pieces.

    This is the manipulation strategy-resistance must make unprofitable.
    """
    split = [j for j in workload.jobs if j.org == org and j.index == job_index]
    if not split:
        raise ValueError("job index out of bounds")
    if sum(sizes) != split[0].size:
        raise ValueError("split sizes must sum to the job size")
    # rebuild FIFO indices preserving submission order (split pieces stay
    # consecutive at the original position)
    per_org: dict[int, list[Job]] = {}
    for j in workload.jobs:
        per_org.setdefault(j.org, []).append(j)
    rebuilt: list[Job] = []
    for o, ojobs in per_org.items():
        ojobs.sort(key=lambda j: j.index)
        idx = 0
        for j in ojobs:
            if o == org and j.index == job_index:
                for sz in sizes:
                    rebuilt.append(Job(j.release, o, idx, sz, id=-1))
                    idx += 1
            else:
                rebuilt.append(Job(j.release, o, idx, j.size, id=-1))
                idx += 1
    return Workload(workload.organizations, rebuilt)


def apply_merge(
    workload: Workload, org: int, first_index: int, count: int
) -> Workload:
    """Return the workload where ``count`` consecutive jobs of one
    organization are merged into a single job (released with the last piece)."""
    if count < 2:
        raise ValueError("merging needs at least two jobs")
    per_org: dict[int, list[Job]] = {}
    for j in workload.jobs:
        per_org.setdefault(j.org, []).append(j)
    target = sorted(per_org.get(org, []), key=lambda j: j.index)
    merged_range = [
        j for j in target if first_index <= j.index < first_index + count
    ]
    if len(merged_range) != count:
        raise ValueError("job index range out of bounds")
    rebuilt: list[Job] = []
    for o, ojobs in per_org.items():
        ojobs.sort(key=lambda j: j.index)
        idx = 0
        for j in ojobs:
            if o == org and first_index < j.index < first_index + count:
                continue  # absorbed into the merged job
            if o == org and j.index == first_index:
                rebuilt.append(
                    Job(
                        max(x.release for x in merged_range),
                        o,
                        idx,
                        sum(x.size for x in merged_range),
                        id=-1,
                    )
                )
            else:
                rebuilt.append(Job(j.release, o, idx, j.size, id=-1))
            idx += 1
    return Workload(workload.organizations, rebuilt)


def apply_delay(workload: Workload, org: int, delta: int) -> Workload:
    """Return the workload where one organization delays all releases by
    ``delta`` (delaying a prefix only could violate FIFO realizability)."""
    return workload.map_jobs(
        lambda j: j.delayed(delta) if j.org == org else j
    )
