"""Per-time-tick reference simulator (literal paper pseudo-code semantics).

The production engine (:class:`repro.core.engine.ClusterEngine`) is
event-driven: it only acts at release/completion times.  The paper's
pseudo-code (Figs. 1, 6) instead iterates ``foreach time moment t``.  The
two are equivalent for greedy schedules -- between events nothing can start
-- but that equivalence is an *implementation theorem* we prove by testing
against this deliberately naive transcription: a tick-by-tick simulator that
walks every integer time step.

Only suitable for tiny instances: a test oracle (``tests/test_engine.py``
and the engine ablation ``benchmarks/bench_engine.py``), not part of the
shipped package.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.core.job import Job
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.workload import Workload
from repro.utility.strategyproof import psi_sp

__all__ = ["TickSimulator", "simulate_ticks"]


class TickSimulator:
    """A tick-by-tick greedy cluster simulation.

    The selection callback receives the simulator and must return the
    organization whose FIFO-head job starts; it is invoked exactly when a
    machine is free and a job waits (the greedy rule).
    """

    def __init__(
        self, workload: Workload, members: Iterable[int] | None = None
    ):
        self.workload = workload
        self.members = (
            tuple(sorted(set(members)))
            if members is not None
            else tuple(range(workload.n_orgs))
        )
        member_set = set(self.members)
        owners: list[int] = []
        for org in workload.organizations:
            owners.extend([org.id] * org.machines)
        self.machines = [m for m, o in enumerate(owners) if o in member_set]
        self.machine_owner = {m: owners[m] for m in self.machines}
        self._jobs = sorted(
            j for j in workload.jobs if j.org in member_set
        )
        self.t = 0
        self._next_job = 0
        self.pending: dict[int, deque[Job]] = {
            u: deque() for u in self.members
        }
        # machine -> (job, start) or None
        self.running: dict[int, tuple[Job, int] | None] = {
            m: None for m in self.machines
        }
        self.log: list[ScheduledJob] = []

    # -- queries usable by selection callbacks -------------------------
    def waiting_orgs(self) -> list[int]:
        return [u for u in self.members if self.pending[u]]

    def has_waiting(self) -> bool:
        return any(self.pending[u] for u in self.members)

    def free_machines(self) -> list[int]:
        return [m for m in self.machines if self.running[m] is None]

    def org_pairs(self, org: int) -> list[tuple[int, int]]:
        return [e.pair() for e in self.log if e.job.org == org]

    def psi(self, org: int, t: int | None = None) -> int:
        return psi_sp(self.org_pairs(org), self.t if t is None else t)

    def psis(self, t: int | None = None) -> list[int]:
        return [self.psi(u, t) for u in range(self.workload.n_orgs)]

    def head_release(self, org: int) -> int:
        return self.pending[org][0].release

    def done(self) -> bool:
        return (
            self._next_job == len(self._jobs)
            and not self.has_waiting()
            and all(r is None for r in self.running.values())
        )

    # -- the tick loop ---------------------------------------------------
    def step(self, select: Callable[["TickSimulator"], int]) -> None:
        """Advance one time tick: completions, releases, then greedy starts."""
        t = self.t
        for m in self.machines:
            slot = self.running[m]
            if slot is not None:
                job, start = slot
                if start + job.size <= t:
                    self.running[m] = None
        while (
            self._next_job < len(self._jobs)
            and self._jobs[self._next_job].release <= t
        ):
            j = self._jobs[self._next_job]
            self.pending[j.org].append(j)
            self._next_job += 1
        for m in self.machines:
            if not self.has_waiting():
                break
            if self.running[m] is None:
                u = select(self)
                job = self.pending[u].popleft()
                self.running[m] = (job, t)
                self.log.append(ScheduledJob(t, m, job))
        self.t = t + 1

    def run(
        self,
        select: Callable[["TickSimulator"], int],
        until: int,
    ) -> Schedule:
        """Tick through ``t = current .. until-1`` and return the schedule."""
        while self.t < until and not self.done():
            self.step(select)
        return Schedule(self.log)


def simulate_ticks(
    workload: Workload,
    select: Callable[[TickSimulator], int],
    until: int,
    members: Iterable[int] | None = None,
) -> Schedule:
    """One-shot helper: run a fresh :class:`TickSimulator` to ``until``."""
    return TickSimulator(workload, members).run(select, until)
