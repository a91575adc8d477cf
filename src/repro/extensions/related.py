"""Related machines extension (paper Sections 2 and 8).

The paper's main model uses identical processors but notes that "most of
our results can be extended to related ... processors" -- machines with
speed factors, where a job's *processing time becomes a function of the
schedule* (Section 2).  This module implements that extension for the
polynomial schedulers (the unit-size results of Section 5.1 explicitly do
not generalize, so REF/RAND stay on identical machines, as in the paper).

Model: organization ``u`` contributes machines of speed ``f_u >= 1``
(:attr:`repro.core.organization.Organization.speed` -- integral speeds keep
the discrete-time model exact); a job with processing *requirement* ``p``
placed on a speed-``f`` machine occupies it for ``ceil(p / f)`` time units,
and that effective duration is what the strategy-proof utility counts (the
job is the pair ``(s, ceil(p/f))`` of the realized schedule).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.job import Job
from ..core.workload import Workload
from ..utility.strategyproof import psi_sp

__all__ = ["RelatedEngine", "RelatedStart", "run_related", "effective_duration"]


def effective_duration(size: int, speed: float) -> int:
    """Time a size-``p`` job occupies a speed-``f`` machine: ``ceil(p/f)``."""
    if speed <= 0:
        raise ValueError("speed must be positive")
    return max(1, math.ceil(size / speed))


@dataclass(frozen=True, slots=True, order=True)
class RelatedStart:
    """One start record: job, start time, machine, realized duration."""

    start: int
    machine: int
    duration: int
    job: Job

    @property
    def end(self) -> int:
        return self.start + self.duration

    def pair(self) -> tuple[int, int]:
        """The ``(s, p')`` pair with the *effective* processing time."""
        return (self.start, self.duration)


class RelatedEngine:
    """Event-driven simulator for related (speed-scaled) machines.

    Same orchestration contract as :class:`repro.core.engine.ClusterEngine`
    (``next_event_time`` / ``advance_to`` / ``start_next`` / ``drive``);
    machine speeds come from the owning organization.  Utilities are
    :math:`\\psi_{sp}` over realized ``(start, duration)`` pairs.
    """

    def __init__(
        self,
        workload: Workload,
        members: Iterable[int] | None = None,
        *,
        horizon: int | None = None,
    ) -> None:
        self.workload = workload
        k = workload.n_orgs
        self.n_orgs = k
        self.members = (
            tuple(sorted(set(members))) if members is not None else tuple(range(k))
        )
        self.horizon = horizon
        member_set = set(self.members)
        self.machine_owner: dict[int, int] = {}
        self.machine_speed: dict[int, float] = {}
        mid = 0
        for org in workload.organizations:
            for _ in range(org.machines):
                if org.id in member_set:
                    self.machine_owner[mid] = org.id
                    self.machine_speed[mid] = org.speed
                mid += 1
        self._free: list[int] = sorted(self.machine_owner)
        heapq.heapify(self._free)
        self._stream = sorted(j for j in workload.jobs if j.org in member_set)
        self._pos = 0
        self._pending: dict[int, deque[Job]] = {u: deque() for u in self.members}
        self._n_waiting = 0
        self.t = 0
        self._busy: list[tuple[int, int]] = []
        self._running: dict[int, RelatedStart] = {}
        self.log: list[RelatedStart] = []

    # -- events ---------------------------------------------------------
    def next_event_time(self) -> int | None:
        cands = []
        if self._pos < len(self._stream):
            cands.append(self._stream[self._pos].release)
        if self._busy:
            cands.append(self._busy[0][0])
        if not cands:
            return None
        t = min(cands)
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    def advance_to(self, t: int) -> None:
        if t < self.t:
            raise ValueError("cannot advance backwards")
        while self._busy and self._busy[0][0] <= t:
            _, machine = heapq.heappop(self._busy)
            self._running.pop(machine)
            heapq.heappush(self._free, machine)
        while self._pos < len(self._stream) and self._stream[self._pos].release <= t:
            j = self._stream[self._pos]
            self._pos += 1
            self._pending[j.org].append(j)
            self._n_waiting += 1
        self.t = t

    # -- state ------------------------------------------------------------
    def waiting_orgs(self) -> list[int]:
        return [u for u in self.members if self._pending[u]]

    def head_release(self, org: int) -> int:
        return self._pending[org][0].release

    def fastest_free_machine(self) -> int:
        """Free machine with the highest speed (ties: lowest id) -- the
        sensible default placement on related machines."""
        return min(self._free, key=lambda m: (-self.machine_speed[m], m))

    def psis(self, t: int | None = None) -> list[int]:
        t = self.t if t is None else t
        out = [0] * self.n_orgs
        for entry in self.log:
            out[entry.job.org] += psi_sp([entry.pair()], t)
        return out

    # -- actions ----------------------------------------------------------
    def start_next(self, org: int, machine: int | None = None) -> RelatedStart:
        if not self._pending[org]:
            raise ValueError(f"org {org} has no waiting job")
        if not self._free:
            raise ValueError("no free machine")
        if machine is None:
            machine = self.fastest_free_machine()
        if machine not in self._free:
            raise ValueError(f"machine {machine} is not free")
        self._free.remove(machine)
        heapq.heapify(self._free)
        job = self._pending[org].popleft()
        self._n_waiting -= 1
        duration = effective_duration(job.size, self.machine_speed[machine])
        entry = RelatedStart(self.t, machine, duration, job)
        self._running[machine] = entry
        heapq.heappush(self._busy, (entry.end, machine))
        self.log.append(entry)
        return entry

    def drive(self, select: Callable[["RelatedEngine"], int], until=None) -> None:
        while True:
            t = self.next_event_time()
            if t is None or (until is not None and t > until):
                return
            self.advance_to(t)
            while self._free and self._n_waiting:
                self.start_next(select(self))


def run_related(
    workload: Workload,
    select: Callable[[RelatedEngine], int],
    t_end: int,
    members: Iterable[int] | None = None,
) -> tuple[list[int], list[RelatedStart]]:
    """Run a selection policy on related machines to ``t_end``.

    Returns the per-organization :math:`\\psi_{sp}` utilities at ``t_end``
    and the realized start log (with effective durations).
    """
    engine = RelatedEngine(workload, members, horizon=t_end)
    engine.drive(select, until=t_end)
    if engine.t < t_end:
        engine.advance_to(t_end)
    return engine.psis(t_end), list(engine.log)
