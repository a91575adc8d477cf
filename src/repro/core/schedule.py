"""Schedules: the output of a scheduling algorithm, with feasibility checks.

A schedule (paper Section 2) is a set of triples
:math:`(J^{(u)}_i, s^{(u)}_i, M(J^{(u)}_i))` -- job, start time, machine.
The paper identifies a job with the pair ``(s, p)`` for utility evaluation;
:meth:`Schedule.org_pairs` provides exactly that view.

Feasibility (the paper's :math:`\\Gamma`):

* a job starts no earlier than its release time,
* a machine runs at most one job at a time,
* jobs of one organization start in FIFO (submission) order,
* *greediness*: whenever a machine is free and a released job waits, some
  job is started (checked by replay).

A :class:`ScheduledJob` is a tuple record ``(start, machine, job)`` like
:class:`~repro.core.job.Job` (equal to the tuple of its fields, encoded
by :mod:`json` as an array).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator, Sequence

from .workload import Workload

__all__ = ["ScheduledJob", "Schedule"]


class ScheduledJob(namedtuple("ScheduledJob", "start machine job")):
    """One schedule entry: ``job`` started at ``start`` on ``machine``."""

    __slots__ = ()

    @property
    def end(self) -> int:
        """First time slot after the job completes (``start + size``)."""
        return self.start + self.job.size

    def pair(self) -> tuple[int, int]:
        """The ``(s, p)`` pair used by utility functions (paper Section 4)."""
        return (self.start, self.job.size)


class Schedule:
    """An immutable collection of :class:`ScheduledJob` entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[ScheduledJob]):
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Schedule is immutable")

    def __iter__(self) -> Iterator[ScheduledJob]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Schedule({len(self.entries)} jobs)"

    # -- views ---------------------------------------------------------------
    def org_pairs(self, org: int) -> list[tuple[int, int]]:
        """``(start, size)`` pairs of one organization's scheduled jobs."""
        return [e.pair() for e in self.entries if e.job.org == org]

    def start_of(self, job_id: int) -> int:
        """Start time of the job with the given global id."""
        for e in self.entries:
            if e.job.id == job_id:
                return e.start
        raise KeyError(f"job id {job_id} not in schedule")

    def makespan(self) -> int:
        """Completion time of the last job (0 for an empty schedule)."""
        return max((e.end for e in self.entries), default=0)

    # -- global efficiency -----------------------------------------------
    def busy_units(self, t: int) -> int:
        """Machine-time units of work executed strictly before ``t``.

        This is the numerator of the resource-utilization metric of
        Section 6: the number of unit-size job parts completed by ``t``.
        """
        return sum(
            min(e.job.size, max(0, t - e.start)) for e in self.entries
        )

    def utilization(self, t: int, n_machines: int) -> float:
        """Fraction of machine capacity used during ``[0, t)`` (Section 6)."""
        if t <= 0 or n_machines <= 0:
            raise ValueError("t and n_machines must be positive")
        return self.busy_units(t) / (t * n_machines)

    def flow_time(self, t: int | None = None) -> int:
        """Total flow time of jobs *completed* by ``t`` (default: all jobs).

        Flow time of a job is ``completion - release``; the classic metric
        that Prop. 4.2 relates to the strategy-proof utility.
        """
        horizon = self.makespan() if t is None else t
        return sum(
            e.end - e.job.release for e in self.entries if e.end <= horizon
        )

    # -- feasibility ---------------------------------------------------------
    def validate(
        self,
        workload: Workload,
        *,
        machine_owners: Sequence[int] | None = None,
        check_greedy: bool = True,
        members: Iterable[int] | None = None,
        horizon: int | None = None,
    ) -> None:
        """Raise ``ValueError`` unless the schedule is feasible for ``workload``.

        Parameters
        ----------
        machine_owners:
            Owner organization of each machine id; defaults to the canonical
            layout (org 0's machines first, then org 1's, ...).
        check_greedy:
            Also verify the greedy invariant (no machine idles while a
            released, unscheduled job waits) -- the class of schedules the
            paper restricts to.
        members:
            Coalition members (defaults to all organizations); jobs and
            machines of non-members must not appear.
        horizon:
            When the schedule was built with a stop time, pass it here: the
            greedy invariant is only checked at times before the horizon
            (after it the scheduler legitimately stops starting jobs).
        """
        member_set = (
            set(members) if members is not None else set(range(workload.n_orgs))
        )
        owners = (
            list(machine_owners)
            if machine_owners is not None
            else _canonical_owners(workload)
        )
        usable = [m for m, o in enumerate(owners) if o in member_set]
        usable_set = set(usable)

        # release times and machine validity
        for e in self.entries:
            if e.start < e.job.release:
                raise ValueError(
                    f"job {e.job.id} started at {e.start} before release "
                    f"{e.job.release}"
                )
            if e.machine not in usable_set:
                raise ValueError(
                    f"job {e.job.id} placed on machine {e.machine} outside "
                    f"the coalition's pool"
                )
            if e.job.org not in member_set:
                raise ValueError(
                    f"job {e.job.id} belongs to non-member org {e.job.org}"
                )

        # machine exclusivity: intervals on one machine must not overlap
        per_machine: dict[int, list[ScheduledJob]] = {}
        for e in self.entries:
            per_machine.setdefault(e.machine, []).append(e)
        for machine, entries in per_machine.items():
            entries.sort(key=lambda e: e.start)
            for a, b in zip(entries, entries[1:]):
                if b.start < a.end:
                    raise ValueError(
                        f"machine {machine}: jobs {a.job.id} and {b.job.id} "
                        f"overlap ({a.start}+{a.job.size} > {b.start})"
                    )

        # FIFO per organization
        per_org: dict[int, list[ScheduledJob]] = {}
        for e in self.entries:
            per_org.setdefault(e.job.org, []).append(e)
        for org, entries in per_org.items():
            entries.sort(key=lambda e: e.job.index)
            for a, b in zip(entries, entries[1:]):
                if b.job.index != a.job.index + 1:
                    # a gap is fine only if the later jobs were never started
                    raise ValueError(
                        f"org {org}: job index gap between scheduled jobs "
                        f"{a.job.index} and {b.job.index}"
                    )
                if b.start < a.start:
                    raise ValueError(
                        f"org {org}: FIFO violated, job {b.job.id} (index "
                        f"{b.job.index}) starts before job {a.job.id}"
                    )

        if check_greedy:
            self._validate_greedy(workload, member_set, usable, horizon)

    def _validate_greedy(
        self,
        workload: Workload,
        member_set: set[int],
        usable_machines: list[int],
        horizon: int | None = None,
    ) -> None:
        """Replay the schedule and check the greedy invariant.

        At every event time, if a machine is free and some released job is
        unscheduled-and-waiting, the schedule must start a job at that time.
        """
        jobs = [j for j in workload.jobs if j.org in member_set]
        started = {e.job.id: e for e in self.entries}
        n_machines = len(usable_machines)
        if n_machines == 0:
            if self.entries:
                raise ValueError("jobs scheduled but the coalition has no machines")
            return
        # event times: all releases, starts, ends
        times = sorted(
            {j.release for j in jobs}
            | {e.start for e in self.entries}
            | {e.end for e in self.entries}
        )
        starts_at: dict[int, int] = {}
        for e in self.entries:
            starts_at[e.start] = starts_at.get(e.start, 0) + 1
        for t in times:
            if horizon is not None and t >= horizon:
                continue
            busy = sum(1 for e in self.entries if e.start <= t < e.end)
            free = n_machines - busy
            waiting = sum(
                1
                for j in jobs
                if j.release <= t
                and (j.id not in started or started[j.id].start > t)
            )
            if free > 0 and waiting > 0:
                raise ValueError(
                    f"greedy invariant violated at t={t}: {free} free "
                    f"machine(s) while {waiting} job(s) wait"
                )


def _canonical_owners(workload: Workload) -> list[int]:
    """Default machine-ownership layout: org 0's machines get the lowest ids."""
    owners: list[int] = []
    for org in workload.organizations:
        owners.extend([org.id] * org.machines)
    return owners
