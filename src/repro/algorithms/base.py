"""Scheduler interface and the shared event-loop drivers.

Every algorithm of the paper (Section 7.1) is a :class:`Scheduler`:
``run(workload) -> SchedulerResult``.  Simple algorithms (round robin, the
fair share family, plain greedy FIFO) only choose *which organization's* job
to start next and subclass :class:`PolicyScheduler`, which owns the
per-engine event loop.  The contribution-driven algorithms (REF, its
general-utility variant, RAND, DIRECTCONTR) are thin policies over a shared
:class:`~repro.core.fleet.CoalitionFleet`: this module also hosts their
common machinery -- the :func:`drive_fleet` EventQueue decision loop, the
Fig. 3 ``argmax(phi - psi)`` selection rule (:func:`fair_select`), and the
:func:`fill_capacity` start loop.

All schedulers obey the paper's constraints by construction: greedy
(never idle a machine while a job waits), non-preemptive, non-clairvoyant,
FIFO within each organization.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.engine import ClusterEngine
from ..core.fleet import CoalitionFleet
from ..core.schedule import Schedule, ScheduledJob
from ..core.workload import Workload
from ..utility.strategyproof import psi_sp

__all__ = [
    "Scheduler",
    "PolicyScheduler",
    "SchedulerResult",
    "members_mask",
    "fair_select",
    "fill_capacity",
    "drive_fleet",
]


def members_mask(
    workload: Workload, members: Iterable[int] | None
) -> tuple[tuple[int, ...], int]:
    """Normalize a coalition spec to ``(sorted member tuple, bitmask)``.

    ``None`` means the grand coalition; an empty coalition raises (no
    contribution-driven scheduler can divide value among zero players).
    """
    members_t = (
        tuple(sorted(set(members)))
        if members is not None
        else tuple(range(workload.n_orgs))
    )
    mask = 0
    for u in members_t:
        if not 0 <= u < workload.n_orgs:
            raise ValueError(f"unknown organization {u}")
        mask |= 1 << u
    if mask == 0:
        raise ValueError("need at least one organization")
    return members_t, mask


def fair_select(waiting: Sequence[int], keys: Mapping[int, int]) -> int:
    """Fig. 3's ``SelectAndSchedule`` rule: the waiting organization
    maximizing ``phi - psi`` (``keys``), ties broken by lowest org id."""
    return max(waiting, key=lambda u: (keys[u], -u))


def fill_capacity(
    fleet: CoalitionFleet, mask: int, keys: Mapping[int, int]
) -> list[ScheduledJob]:
    """Start jobs on coalition ``mask`` while a machine is free and jobs
    wait, always picking :func:`fair_select`'s winner; completion times are
    pushed into the fleet's shared event queue."""
    eng = fleet.engine(mask)
    started: list[ScheduledJob] = []
    while eng.free_count > 0 and eng.has_waiting():
        u = fair_select(eng.waiting_orgs(), keys)
        started.append(fleet.start_next(mask, u))
    return started


def drive_fleet(
    fleet: CoalitionFleet, on_event: Callable[[CoalitionFleet, int], None]
) -> int:
    """The shared EventQueue-driven decision loop (paper Figs. 1/3/6).

    Pops decision times (job releases seeded at fleet construction, plus
    completion times pushed by every ``fleet.start_next``) until exhausted
    or at/after the fleet's horizon, invoking ``on_event(fleet, t)`` at
    each.  Returns the last processed event time (0 if none).
    """
    last = 0
    while True:
        t = fleet.next_decision()
        if t is None:
            return last
        last = t
        on_event(fleet, t)


@dataclass(frozen=True)
class SchedulerResult:
    """The outcome of one scheduler run.

    Utilities are re-derivable at *any* evaluation time from the start log
    (``schedule``), because :math:`\\psi_{sp}` depends only on the
    ``(start, size)`` pairs -- this is how the harness evaluates a single
    run at several horizons.
    """

    algorithm: str
    workload: Workload
    members: tuple[int, ...]
    schedule: Schedule
    horizon: int | None = None
    meta: dict = field(default_factory=dict)

    def utilities(self, t: int) -> list[int]:
        """Per-organization :math:`\\psi_{sp}` at time ``t`` (length k)."""
        pairs_per_org: list[list[tuple[int, int]]] = [
            [] for _ in range(self.workload.n_orgs)
        ]
        for e in self.schedule:
            pairs_per_org[e.job.org].append(e.pair())
        return [psi_sp(pairs, t) for pairs in pairs_per_org]

    def utility_vector(self, t: int) -> np.ndarray:
        return np.array(self.utilities(t), dtype=np.int64)

    def value(self, t: int) -> int:
        """Coalition value ``v`` at ``t`` (sum of utilities)."""
        return sum(self.utilities(t))

    def completed_units(self, t: int) -> int:
        """Unit-size job parts executed before ``t`` (the paper's p_tot when
        evaluated on the reference schedule)."""
        return self.schedule.busy_units(t)

    def utilization(self, t: int) -> float:
        m = sum(
            self.workload.machines_of(u) for u in self.members
        )
        if m == 0 or t <= 0:
            return 0.0
        return self.schedule.busy_units(t) / (m * t)


class Scheduler(ABC):
    """A fair-scheduling algorithm (paper Section 7.1)."""

    #: Display name used in tables (matches the paper's algorithm names).
    name: str = "scheduler"

    @abstractmethod
    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        """Schedule the coalition ``members`` (default: all organizations)
        of ``workload`` and return the resulting schedule and metadata."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PolicyScheduler(Scheduler):
    """Event-loop driver for selection-policy algorithms.

    Subclasses implement :meth:`select` (and may override
    :meth:`schedule_event` for machine-level control, e.g. DIRECTCONTR).

    Parameters
    ----------
    horizon:
        Stop processing events at/after this time.  Utilities evaluated at
        the horizon are unaffected by the cut (a job started at ``t``
        contributes nothing to :math:`\\psi_{sp}(t)`).
    """

    def __init__(self, horizon: int | None = None):
        self.horizon = horizon

    # -- hooks ---------------------------------------------------------------
    def on_run_start(self, engine: ClusterEngine) -> None:
        """Per-run initialization hook (reset mutable policy state)."""

    def on_cluster_change(self, engine: ClusterEngine) -> None:
        """Refresh state derived from the pool or member set.

        The online service calls this after dynamic membership / machine
        mutations (the batch path never does: its cluster is frozen).
        Unlike :meth:`on_run_start` this must *not* reset decision history
        -- only re-derive quantities such as target shares.
        """

    def state(self) -> "dict[str, list[int]]":
        """Decision state the engine does not hold, as named int rows (a
        checkpoint image's ``scheduler`` rows; DESIGN.md §6.2).  Empty for
        a policy whose every decision is a function of the engine and of
        what :meth:`on_cluster_change` derives from it."""
        return {}

    def load_state(self, state: "dict[str, list[int]]") -> None:
        """Adopt :meth:`state`'s rows after :meth:`on_run_start`; a row
        this policy does not keep is a ``ValueError``."""
        if state:
            raise ValueError(
                f"image scheduler rows {sorted(state)}: {self.name} keeps none"
            )

    @abstractmethod
    def select(self, engine: ClusterEngine) -> int:
        """Choose the organization whose FIFO-head job starts now."""

    def schedule_event(self, engine: ClusterEngine) -> None:
        """Start jobs at the current event time while capacity remains."""
        while engine.free_count > 0 and engine.has_waiting():
            engine.start_next(self.select(engine))

    # -- driver ----------------------------------------------------------------
    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        if members is not None:
            members = tuple(members)  # may be a one-shot iterator
            if not members:
                # degenerate empty coalition: nothing to schedule
                return SchedulerResult(
                    algorithm=self.name,
                    workload=workload,
                    members=(),
                    schedule=Schedule(()),
                    horizon=self.horizon,
                )
        members_t, mask = members_mask(workload, members)
        # a fleet of one coalition; the event loop talks to its engine
        # directly (no shared decision queue to pop, no sibling engines to
        # sync), so track_events is off and no per-event cost is added
        fleet = CoalitionFleet(
            workload, (mask,), horizon=self.horizon, track_events=False
        )
        engine = fleet.engine(mask)
        self.on_run_start(engine)
        while True:
            t = engine.next_event_time()
            if t is None:
                break
            engine.advance_to(t)
            self.schedule_event(engine)
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=engine.members,
            schedule=engine.schedule(),
            horizon=self.horizon,
        )
