"""Workloads: organizations plus their job streams.

A :class:`Workload` is the complete input of the fair-scheduling problem:
the set of organizations (with machine endowments) and every job they will
ever submit.  Schedulers see jobs only from their release times onward; the
workload object itself is the *offline* ground truth used by the simulator
and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .job import Job, validate_jobs
from .organization import Organization

__all__ = ["Workload", "WorkloadStats"]


@dataclass(frozen=True, slots=True)
class WorkloadStats:
    """Summary statistics of a workload (reported by trace generators)."""

    n_orgs: int
    n_machines: int
    n_jobs: int
    total_work: int
    horizon: int
    load_factor: float
    mean_size: float
    max_size: int

    def __str__(self) -> str:
        return (
            f"{self.n_orgs} orgs, {self.n_machines} machines, "
            f"{self.n_jobs} jobs, work={self.total_work}, "
            f"horizon={self.horizon}, load={self.load_factor:.2f}"
        )


class Workload:
    """Organizations and their jobs; the scheduling-problem instance.

    Parameters
    ----------
    organizations:
        The ``k`` players, with ids ``0..k-1`` (checked).
    jobs:
        All jobs of all organizations.  Jobs get fresh contiguous global ids
        if any id is negative.  FIFO indices per organization must be
        contiguous from 0 with non-decreasing release times
        (:func:`repro.core.job.validate_jobs`).
    """

    __slots__ = ("organizations", "jobs", "_jobs_by_org")

    def __init__(
        self,
        organizations: Sequence[Organization],
        jobs: Iterable[Job],
    ) -> None:
        orgs = tuple(organizations)
        for pos, org in enumerate(orgs):
            if org.id != pos:
                raise ValueError(
                    f"organization ids must be contiguous from 0; "
                    f"position {pos} has id {org.id}"
                )
        job_list = sorted(jobs)
        if any(j.id < 0 for j in job_list):
            job_list = [
                Job(j.release, j.org, j.index, j.size, id=i)
                for i, j in enumerate(job_list)
            ]
        for j in job_list:
            if j.org >= len(orgs):
                raise ValueError(f"job {j.id} references unknown org {j.org}")
        validate_jobs(job_list)
        ids = [j.id for j in job_list]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        by_org: list[list[Job]] = [[] for _ in orgs]
        for j in job_list:
            by_org[j.org].append(j)
        for org_jobs in by_org:
            org_jobs.sort(key=lambda j: j.index)
        object.__setattr__(self, "organizations", orgs)
        object.__setattr__(self, "jobs", tuple(job_list))
        object.__setattr__(self, "_jobs_by_org", tuple(tuple(js) for js in by_org))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Workload is immutable")

    def __setstate__(self, state: "tuple[None, dict]") -> None:
        # copy and pickle restore __slots__ through setattr, refused above
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    # -- accessors ---------------------------------------------------------
    @property
    def n_orgs(self) -> int:
        return len(self.organizations)

    @property
    def n_machines(self) -> int:
        return sum(o.machines for o in self.organizations)

    def machines_of(self, org: int) -> int:
        """Machine count contributed by one organization."""
        return self.organizations[org].machines

    def jobs_of(self, org: int) -> tuple[Job, ...]:
        """The FIFO-ordered job stream of one organization."""
        return self._jobs_by_org[org]

    def machine_counts(self) -> tuple[int, ...]:
        """Per-organization machine endowments (index = org id)."""
        return tuple(o.machines for o in self.organizations)

    def shares(self) -> tuple[float, ...]:
        """Machine-fraction target shares (used by the fair share family).

        The paper (Section 7.1) sets each organization's fair share target to
        the fraction of processors it contributes to the global pool.
        """
        total = self.n_machines
        if total == 0:
            raise ValueError("workload has no machines")
        return tuple(o.machines / total for o in self.organizations)

    def stats(self) -> WorkloadStats:
        """Summary statistics (size, work, horizon, load factor)."""
        sizes = [j.size for j in self.jobs]
        total_work = sum(sizes)
        horizon = (
            max((j.release + j.size for j in self.jobs), default=0)
        )
        m = self.n_machines
        load = total_work / (m * horizon) if m and horizon else 0.0
        return WorkloadStats(
            n_orgs=self.n_orgs,
            n_machines=m,
            n_jobs=len(self.jobs),
            total_work=total_work,
            horizon=horizon,
            load_factor=load,
            mean_size=(total_work / len(sizes)) if sizes else 0.0,
            max_size=max(sizes, default=0),
        )

    # -- transforms ----------------------------------------------------------
    def restrict(self, members: Iterable[int]) -> "Workload":
        """The sub-workload of a coalition: its organizations *and machines*
        keep their global ids, non-members keep their identity but contribute
        neither jobs nor machines.

        Organization ids are preserved (required so that utilities/Shapley
        values computed on subcoalitions line up with the grand coalition);
        non-member organizations are replaced by 0-machine, 0-job husks.
        """
        member_set = set(members)
        orgs = tuple(
            org
            if org.id in member_set
            else Organization(org.id, 0, org.speed, org.name)
            for org in self.organizations
        )
        jobs = [j for j in self.jobs if j.org in member_set]
        return Workload(orgs, jobs)

    def window(self, start: int, end: int) -> "Workload":
        """Jobs released in ``[start, end)``, re-based so time 0 = ``start``.

        This is the paper's experimental protocol (Section 7.2): experiments
        run on random sub-traces ``[t_start, t_start + D)`` of a long trace.
        FIFO indices are re-assigned contiguously per organization.
        """
        if end < start:
            raise ValueError("end must be >= start")
        picked = [j for j in self.jobs if start <= j.release < end]
        picked.sort()
        counters = [0] * self.n_orgs
        rebased = []
        for j in picked:
            rebased.append(
                Job(
                    release=j.release - start,
                    org=j.org,
                    index=counters[j.org],
                    size=j.size,
                    id=-1,
                )
            )
            counters[j.org] += 1
        return Workload(self.organizations, rebased)

    def map_jobs(self, fn: Callable[[Job], Job]) -> "Workload":
        """Apply ``fn`` to every job and revalidate (used by manipulations)."""
        return Workload(self.organizations, [fn(j) for j in self.jobs])

    def with_unit_jobs(self) -> "Workload":
        """Replace every job of size p with p unit jobs (same release).

        Used by the unit-size special case (Section 5.1) and by tests of
        Prop. 5.4.  FIFO indices are re-assigned.
        """
        counters = [0] * self.n_orgs
        out: list[Job] = []
        for j in sorted(self.jobs):
            for _ in range(j.size):
                out.append(Job(j.release, j.org, counters[j.org], 1, id=-1))
                counters[j.org] += 1
        return Workload(self.organizations, out)

    def __repr__(self) -> str:
        return f"Workload({self.stats()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return (
            self.organizations == other.organizations and self.jobs == other.jobs
        )

    def __hash__(self) -> int:
        return hash((self.organizations, self.jobs))
