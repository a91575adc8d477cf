"""Event-driven online cluster simulator (one instance per coalition).

This is the execution substrate shared by *every* scheduling algorithm in the
library.  It models the paper's system (Section 2): a pool of identical
processors contributed by coalition members, per-organization FIFO queues of
released-but-unstarted jobs, non-preemptive execution, and the *greedy*
invariant (a free machine plus a waiting job forces a start).

Design notes (see DESIGN.md §2):

* **Event-driven**: scheduling decisions only occur at release/completion
  times; the engine advances lazily between them.  Tests prove equivalence
  with a literal per-time-tick transcription of the paper's pseudo-code
  (``tests/tick_reference.py``).
* **Exact integer utility aggregates**: the strategy-proof utility
  :math:`\\psi_{sp}` of a completed job ``(s, p)`` at time ``t`` is
  ``p*(t-s) - p*(p-1)/2``, so per-organization sums ``(Σp, Σ(p·s+p(p-1)/2))``
  plus an O(#running) pass give :math:`\\psi_{sp}` at any event time in exact
  integer arithmetic.  The same bookkeeping keyed by the *machine owner*
  supports DIRECTCONTR's contribution estimate.
* **O(1) value ledger**: coalition-total aggregates (completed units and
  weighted starts, plus running-job start moments) are maintained
  incrementally, so ``value(t)`` at the current time is a constant-time
  formula and :class:`repro.core.fleet.CoalitionFleet` can mirror every
  engine's ledger into numpy arrays.  A ``version`` counter bumps on each
  value-affecting mutation (start or completion -- releases do not change
  :math:`\\psi_{sp}`) for the fleet's dirty tracking.
* **Free machines**: a min-heap with a shadow set and lazy deletion, so the
  default lowest-id pop stays O(log n) *and* DIRECTCONTR's explicit random
  machine choice is O(1) instead of the O(n) remove-and-reheapify it used
  to cost.
* **Non-clairvoyance**: scheduler-facing accessors never expose the size of
  a running job; sizes become visible only through completion.
* **Dynamic mutation** (DESIGN.md §6): the online service feeds the engine
  incrementally instead of freezing everything at construction.
  :meth:`ClusterEngine.submit` inserts a job into the unprocessed stream
  suffix (bit-identical with a frozen stream whenever submission happens no
  later than release); :meth:`ClusterEngine.add_machine` /
  :meth:`ClusterEngine.retire_machine` grow and drain the pool (a busy
  machine finishes its job, then retires); :meth:`ClusterEngine.add_member`
  / :meth:`ClusterEngine.remove_member` change the coalition, withdrawing a
  leaver's unstarted jobs while running jobs complete (non-preemption) and
  its history stays in every ledger.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from typing import Iterable, Sequence

from .job import Job
from .schedule import Schedule, ScheduledJob
from .workload import Workload

__all__ = ["ClusterEngine", "RunningJob"]


class RunningJob:
    """A job currently occupying a machine (scheduler-visible fields only)."""

    __slots__ = ("job", "start", "machine", "finish")

    def __init__(self, job: Job, start: int, machine: int):
        self.job = job
        self.start = start
        self.machine = machine
        self.finish = start + job.size  # engine-internal; hidden from policies

    @property
    def org(self) -> int:
        return self.job.org


class ClusterEngine:
    """Simulates one coalition's cluster, driven by an external orchestrator.

    Parameters
    ----------
    workload:
        The full problem instance.  Only the jobs and machines of coalition
        ``members`` participate.
    members:
        Coalition member organization ids (default: all).  Machine ids are
        global (canonical layout: org 0's machines first), so the same job
        placed by different coalitions refers to consistent machine ids.
    horizon:
        Optional stop time: events at ``t >= horizon`` are not processed.
        Utilities evaluated *at* the horizon are unaffected (a job started at
        ``t`` contributes nothing to :math:`\\psi_{sp}(t)`).

    The orchestration contract is::

        while (t := engine.next_event_time()) is not None:
            engine.advance_to(t)
            while engine.free_count > 0 and engine.has_waiting():
                engine.start_next(chosen_org)

    (:meth:`drive` packages this loop for simple policies.)
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
        self.members: tuple[int, ...] = (
            tuple(sorted(set(members))) if members is not None else tuple(range(k))
        )
        for u in self.members:
            if not 0 <= u < k:
                raise ValueError(f"unknown organization {u}")
        self.horizon = horizon

        # --- machines (canonical global ids, filtered to members) --------
        owners: list[int] = []
        for org in workload.organizations:
            owners.extend([org.id] * org.machines)
        self.machine_owner: dict[int, int] = {
            mid: o for mid, o in enumerate(owners) if o in set(self.members)
        }
        self.n_machines = len(self.machine_owner)
        # free machines: min-heap + shadow set with lazy deletion (an id is
        # free iff it is in the set; the heap may hold stale entries)
        self._free: list[int] = sorted(self.machine_owner)
        self._free_set: set[int] = set(self._free)
        heapq.heapify(self._free)

        # --- job release stream (members only, canonical order) ----------
        self._stream: list[Job] = sorted(
            j for j in workload.jobs if j.org in set(self.members)
        )
        self._stream_pos = 0
        self._pending: dict[int, deque[Job]] = {u: deque() for u in self.members}
        self._n_waiting = 0

        # --- execution state ---------------------------------------------
        self.t = 0
        self._busy: list[tuple[int, int]] = []  # (finish, machine) heap
        self._running: dict[int, RunningJob] = {}  # machine -> RunningJob
        # dynamic-pool bookkeeping: machines draining (busy, retire at
        # completion) and machines fully retired (kept in machine_owner so
        # retrospective by-owner attribution of their past work still works)
        self._retiring: set[int] = set()
        self._retired: set[int] = set()

        # --- psi_sp aggregates (exact ints) --------------------------------
        # by job owner
        self._done_units = [0] * k
        self._done_wstart = [0] * k
        # by machine owner (for DIRECTCONTR-style contribution accounting)
        self._done_units_mach = [0] * k
        self._done_wstart_mach = [0] * k
        # coalition totals for the O(1) value ledger: completed units,
        # completed weighted starts, and the running jobs' start-moment sums
        # Σs and Σs² (all running jobs have finish > self.t, so their
        # psi_sp at self.t is tri(t - s) -- see value()).
        self._tot_units = 0
        self._tot_wstart = 0
        self._run_start_sum = 0
        self._run_start_sq = 0
        #: bumped on every value-affecting mutation (start / completion);
        #: releases leave it untouched.  CoalitionFleet uses this for dirty
        #: tracking of its vectorized ledger.
        self.version = 0

        self._log: list[ScheduledJob] = []
        self._completed: list[ScheduledJob] = []

    # ------------------------------------------------------------------
    # event iteration
    # ------------------------------------------------------------------
    def next_event_time(self) -> int | None:
        """Next release or completion time after the current time, or None.

        Returns ``None`` once there is nothing left to do (or every
        remaining event is at/after the horizon).
        """
        candidates: list[int] = []
        if self._stream_pos < len(self._stream):
            candidates.append(self._stream[self._stream_pos].release)
        if self._busy:
            candidates.append(self._busy[0][0])
        if not candidates:
            return None
        t = min(candidates)
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    def has_event_at_or_before(self, t: int) -> bool:
        """Any unprocessed release or completion at a time ``<= t``?

        Allocation-free (unlike :meth:`next_event_time`) and deliberately
        horizon-blind: it answers "would :meth:`advance_to` do any work",
        which is what :class:`repro.core.fleet.CoalitionFleet` asks once
        per engine per decision time.
        """
        if self._stream_pos < len(self._stream):
            if self._stream[self._stream_pos].release <= t:
                return True
        return bool(self._busy) and self._busy[0][0] <= t

    def advance_to(self, t: int) -> None:
        """Process all completions and releases at times ``<= t``.

        Completions are processed before releases at equal times; neither
        ordering affects utilities (both only enable scheduling *at* ``t``).
        """
        if t < self.t:
            raise ValueError(f"cannot advance backwards ({self.t} -> {t})")
        while self._busy and self._busy[0][0] <= t:
            finish, machine = heapq.heappop(self._busy)
            run = self._running.pop(machine)
            self._complete(run)
            if machine in self._retiring:
                self._retiring.discard(machine)
                self._retired.add(machine)
                self.n_machines -= 1
            else:
                heapq.heappush(self._free, machine)
                self._free_set.add(machine)
        while (
            self._stream_pos < len(self._stream)
            and self._stream[self._stream_pos].release <= t
        ):
            job = self._stream[self._stream_pos]
            self._stream_pos += 1
            self._pending[job.org].append(job)
            self._n_waiting += 1
        self.t = t

    def _complete(self, run: RunningJob) -> None:
        p = run.job.size
        s = run.start
        tri = p * s + p * (p - 1) // 2
        u = run.job.org
        self._done_units[u] += p
        self._done_wstart[u] += tri
        mo = self.machine_owner[run.machine]
        self._done_units_mach[mo] += p
        self._done_wstart_mach[mo] += tri
        self._tot_units += p
        self._tot_wstart += tri
        self._run_start_sum -= s
        self._run_start_sq -= s * s
        self.version += 1
        self._completed.append(ScheduledJob(run.start, run.machine, run.job))

    # ------------------------------------------------------------------
    # scheduler-facing state (non-clairvoyant: no running sizes exposed)
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        return len(self._free_set)

    def free_machines(self) -> list[int]:
        """Ids of currently free machines (sorted)."""
        return sorted(self._free_set)

    def has_waiting(self) -> bool:
        """True when any member has a released, unstarted job."""
        return self._n_waiting > 0

    def waiting_count(self, org: int) -> int:
        """Released-but-unstarted jobs of one organization."""
        return len(self._pending[org])

    def waiting_orgs(self) -> list[int]:
        """Members with at least one released, unstarted job (ascending)."""
        return [u for u in self.members if self._pending[u]]

    def head_release(self, org: int) -> int:
        """Release time of the organization's first waiting job."""
        return self._pending[org][0].release

    def running_count(self, org: int) -> int:
        """Currently executing jobs of one organization."""
        return sum(1 for r in self._running.values() if r.org == org)

    def running_counts(self) -> list[int]:
        """Currently executing jobs per organization (length k)."""
        out = [0] * self.n_orgs
        for r in self._running.values():
            out[r.org] += 1
        return out

    def running_on(self, machine: int) -> RunningJob | None:
        """The job currently on ``machine`` (None if the machine is free)."""
        return self._running.get(machine)

    def consumed_cpu(self, org: int, t: int | None = None) -> int:
        """CPU time consumed by the organization's jobs up to ``t``.

        Completed work plus elapsed time of running jobs -- the quantity the
        classic FAIRSHARE algorithm balances against target shares.
        """
        t = self.t if t is None else t
        total = self._done_units[org]
        for r in self._running.values():
            if r.org == org:
                total += min(t, r.finish) - r.start
        return total

    # ------------------------------------------------------------------
    # psi_sp utilities (exact integers)
    # ------------------------------------------------------------------
    def psi(self, org: int, t: int | None = None) -> int:
        """:math:`\\psi_{sp}` (paper Eq. 3) of one organization at time ``t``.

        O(#running) for the current time (the hot path during simulation);
        retrospective queries (``t < self.t``) recompute from the start log.
        """
        t = self.t if t is None else t
        if t < self.t:
            return self.psis(t)[org]
        val = self._done_units[org] * t - self._done_wstart[org]
        for r in self._running.values():
            if r.org == org:
                val += _partial_psi(r.start, r.job.size, t)
        return val

    def psis(self, t: int | None = None) -> list[int]:
        """Per-organization :math:`\\psi_{sp}` values in one pass (length k)."""
        t = self.t if t is None else t
        out = [0] * self.n_orgs
        if t < self.t:
            # retrospective: the completed-job aggregates assume full
            # execution by t, so recompute exactly from the start log
            for e in self._log:
                out[e.job.org] += _partial_psi(e.start, e.job.size, t)
            return out
        for u in range(self.n_orgs):
            out[u] = self._done_units[u] * t - self._done_wstart[u]
        for r in self._running.values():
            out[r.org] += _partial_psi(r.start, r.job.size, t)
        return out

    def psis_by_machine_owner(self, t: int | None = None) -> list[int]:
        """:math:`\\psi_{sp}` of work executed on each organization's machines.

        The DIRECTCONTR contribution estimate: the utility an organization's
        processors *produced* (for anyone), at time ``t``.
        """
        t = self.t if t is None else t
        out = [0] * self.n_orgs
        if t < self.t:
            for e in self._log:
                out[self.machine_owner[e.machine]] += _partial_psi(
                    e.start, e.job.size, t
                )
            return out
        for u in range(self.n_orgs):
            out[u] = self._done_units_mach[u] * t - self._done_wstart_mach[u]
        for machine, r in self._running.items():
            out[self.machine_owner[machine]] += _partial_psi(
                r.start, r.job.size, t
            )
        return out

    def value(self, t: int | None = None) -> int:
        """Coalition value ``v(C, t)`` = total :math:`\\psi_{sp}` (paper §2).

        O(1) at the current time: every running job has ``finish > self.t``
        (completions at or before the current time have been processed), so
        its executed part at ``t = self.t`` is ``c = t - start < size`` and
        its psi_sp is the triangular sum ``c*(c+1)/2``; summing over running
        jobs needs only ``Σstart`` and ``Σstart²``.
        """
        if t is None or t == self.t:
            t = self.t
            r = len(self._running)
            return (
                self._tot_units * t
                - self._tot_wstart
                + (
                    r * (t * t + t)
                    - self._run_start_sum * (2 * t + 1)
                    + self._run_start_sq
                )
                // 2
            )
        return sum(self.psis(t))

    def ledger(self) -> tuple[int, int, int, int, int]:
        """The O(1) value aggregates ``(units, wstart, n_running, Σs, Σs²)``.

        Exact Python ints; :class:`repro.core.fleet.CoalitionFleet` mirrors
        them into int64 numpy columns so ``v(C', t)`` for *all* coalitions is
        a handful of array ops.  Valid for evaluation at the engine's current
        time (see :meth:`value`).
        """
        return (
            self._tot_units,
            self._tot_wstart,
            len(self._running),
            self._run_start_sum,
            self._run_start_sq,
        )

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def start_next(self, org: int, machine: int | None = None) -> ScheduledJob:
        """Start the organization's first waiting job now (FIFO order).

        Parameters
        ----------
        machine:
            Specific free machine id (DIRECTCONTR chooses machines in random
            order); default is the lowest-id free machine.
        """
        if not self._pending[org]:
            raise ValueError(f"org {org} has no waiting job at t={self.t}")
        if not self._free_set:
            raise ValueError(f"no free machine at t={self.t}")
        if machine is None:
            # lazy deletion: skip heap entries whose machine was taken by an
            # explicit-machine start since it was pushed
            while True:
                machine = heapq.heappop(self._free)
                if machine in self._free_set:
                    break
            self._free_set.discard(machine)
        else:
            if machine not in self._free_set:
                raise ValueError(f"machine {machine} is not free at t={self.t}")
            self._free_set.discard(machine)  # heap entry goes stale, O(1)
        job = self._pending[org].popleft()
        self._n_waiting -= 1
        run = RunningJob(job, self.t, machine)
        self._running[machine] = run
        heapq.heappush(self._busy, (run.finish, machine))
        self._run_start_sum += self.t
        self._run_start_sq += self.t * self.t
        self.version += 1
        entry = ScheduledJob(self.t, machine, job)
        self._log.append(entry)
        return entry

    # ------------------------------------------------------------------
    # dynamic mutation (online service, DESIGN.md §6)
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Inject a job into the unprocessed stream (online ingestion).

        The job must belong to a current member and must not be released in
        the engine's past (``job.release >= self.t``) -- the service clamps
        stale releases before calling.  Insertion keeps the stream suffix in
        canonical :class:`~repro.core.job.Job` order, so an engine fed one
        job at a time is bit-identical to an engine constructed with the
        full frozen stream (the replay == batch equivalence lever).
        """
        if job.org not in self._pending:
            raise ValueError(f"org {job.org} is not a member of this engine")
        if job.release < self.t:
            raise ValueError(
                f"cannot submit into the past (release {job.release} < "
                f"engine time {self.t})"
            )
        insort(self._stream, job, lo=self._stream_pos)

    def add_machine(self, machine: int, owner: int) -> None:
        """Add a (free) machine with a service-assigned global id."""
        if machine in self.machine_owner:
            raise ValueError(f"machine id {machine} already known")
        if owner not in self._pending:
            raise ValueError(f"org {owner} is not a member of this engine")
        self.machine_owner[machine] = owner
        self.n_machines += 1
        heapq.heappush(self._free, machine)
        self._free_set.add(machine)

    def retire_machine(self, machine: int) -> None:
        """Remove a machine from the pool.

        A free machine retires immediately (its heap entry is lazily
        deleted); a busy machine *drains* -- it finishes its running job
        (non-preemption) and retires at that completion instead of
        returning to the free pool.  Historical attribution is unaffected:
        the ownership record is kept for retrospective by-owner queries.
        """
        if machine in self._free_set:
            self._free_set.discard(machine)
            self._retired.add(machine)
            self.n_machines -= 1
        elif machine in self._running:
            self._retiring.add(machine)
        elif machine in self.machine_owner:
            raise ValueError(f"machine {machine} is already retired")
        else:
            raise ValueError(f"unknown machine {machine}")

    def machine_counts(self) -> list[int]:
        """Live machines per organization (length ``n_orgs``); draining
        machines count until their running job completes."""
        out = [0] * self.n_orgs
        for machine, owner in self.machine_owner.items():
            if machine not in self._retired:
                out[owner] += 1
        return out

    def add_member(self, org: int) -> None:
        """Admit an organization (id may extend the known range).

        The newcomer starts with no machines and no jobs; use
        :meth:`add_machine` / :meth:`submit` for its endowment and stream.
        Per-organization ledgers grow with zeros -- the newcomer's utility
        history begins at admission.
        """
        if org in self._pending:
            raise ValueError(f"org {org} is already a member")
        if org < 0:
            raise ValueError(f"org must be >= 0, got {org}")
        if org >= self.n_orgs:
            grow = org + 1 - self.n_orgs
            for ledger in (
                self._done_units,
                self._done_wstart,
                self._done_units_mach,
                self._done_wstart_mach,
            ):
                ledger.extend([0] * grow)
            self.n_orgs = org + 1
        self.members = tuple(sorted((*self.members, org)))
        self._pending[org] = deque()

    def fork(self) -> "ClusterEngine":
        """An independent copy of this engine's full simulation state.

        Mutable containers are copied, immutable records (the workload,
        jobs, schedule entries, write-once running-job records) are
        shared.  The online service forks the grand coalition's engine at
        a membership epoch: the original grows into the new coalition
        while the fork continues the old mask's counterfactual.
        """
        clone = object.__new__(ClusterEngine)
        clone.workload = self.workload
        clone.n_orgs = self.n_orgs
        clone.members = self.members
        clone.horizon = self.horizon
        clone.machine_owner = dict(self.machine_owner)
        clone.n_machines = self.n_machines
        clone._free = list(self._free)
        clone._free_set = set(self._free_set)
        clone._stream = list(self._stream)
        clone._stream_pos = self._stream_pos
        clone._pending = {u: deque(q) for u, q in self._pending.items()}
        clone._n_waiting = self._n_waiting
        clone.t = self.t
        clone._busy = list(self._busy)
        clone._running = dict(self._running)
        clone._retiring = set(self._retiring)
        clone._retired = set(self._retired)
        clone._done_units = list(self._done_units)
        clone._done_wstart = list(self._done_wstart)
        clone._done_units_mach = list(self._done_units_mach)
        clone._done_wstart_mach = list(self._done_wstart_mach)
        clone._tot_units = self._tot_units
        clone._tot_wstart = self._tot_wstart
        clone._run_start_sum = self._run_start_sum
        clone._run_start_sq = self._run_start_sq
        clone.version = self.version
        clone._log = list(self._log)
        clone._completed = list(self._completed)
        return clone

    def remove_member(self, org: int) -> None:
        """Expel an organization: unstarted work is withdrawn.

        Waiting jobs are dropped, not-yet-released jobs are purged from the
        stream, running jobs complete normally (non-preemption) and every
        ledger keeps the leaver's history -- coalition values remain exact
        for the work that actually ran.  The leaver's machines are retired
        separately (:meth:`retire_machine`), so a caller can choose whether
        hardware outlives membership.
        """
        if org not in self._pending:
            raise ValueError(f"org {org} is not a member of this engine")
        self._n_waiting -= len(self._pending[org])
        self._pending[org].clear()
        del self._pending[org]
        self.members = tuple(u for u in self.members if u != org)
        kept = [j for j in self._stream[self._stream_pos:] if j.org != org]
        self._stream = self._stream[: self._stream_pos] + kept

    # ------------------------------------------------------------------
    # orchestration helpers
    # ------------------------------------------------------------------
    def drive(self, select, until: int | None = None) -> None:
        """Run the standard greedy event loop with a selection callback.

        ``select(engine) -> org_id`` is invoked while a machine is free and
        jobs wait.  Processing stops when events are exhausted or the next
        event is at/after ``until`` (events exactly at ``until`` *are*
        processed so values at ``until`` reflect every earlier decision).
        """
        while True:
            t = self.next_event_time()
            if t is None or (until is not None and t > until):
                return
            self.advance_to(t)
            while self._free_set and self._n_waiting:
                self.start_next(select(self))

    def is_idle(self) -> bool:
        """True when no job is running and none is waiting."""
        return not self._running and self._n_waiting == 0

    def done(self) -> bool:
        """True when every job has been released, run and completed."""
        return (
            self._stream_pos == len(self._stream)
            and not self._running
            and self._n_waiting == 0
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def completed_log(self) -> list[ScheduledJob]:
        """Completed jobs in completion order (treat as read-only).

        Completion is when a job's size becomes visible (non-clairvoyance);
        DIRECTCONTR's faithful accounting consumes this list incrementally.
        """
        return self._completed

    def schedule(self) -> Schedule:
        """The schedule built so far (started jobs, including running ones)."""
        return Schedule(self._log)

    def busy_units(self, t: int | None = None) -> int:
        """Unit-size job parts executed strictly before ``t`` (Section 6)."""
        t = self.t if t is None else t
        total = sum(self._done_units)
        # completed jobs may extend past t if t is in their past: recompute
        # exactly from the log instead when t is before current time.
        if t < self.t:
            return sum(
                min(e.job.size, max(0, t - e.start)) for e in self._log
            )
        for r in self._running.values():
            total += max(0, min(t, r.finish) - r.start)
        return total

    def utilization(self, t: int | None = None) -> float:
        """Average fraction of busy processors during ``[0, t)``."""
        t = self.t if t is None else t
        if t <= 0 or self.n_machines == 0:
            return 0.0
        return self.busy_units(t) / (t * self.n_machines)


def _partial_psi(start: int, size: int, t: int) -> int:
    """:math:`\\psi_{sp}` contribution at ``t`` of a single job ``(start, size)``.

    ``c = min(size, t - start)`` unit parts have been executed by ``t``; the
    part run in slot ``start + i`` is worth ``t - start - i``:
    ``sum = c*(t-start) - c*(c-1)/2``  (exact integer).
    """
    c = t - start
    if c <= 0:
        return 0
    if c > size:
        c = size
    return c * (t - start) - c * (c - 1) // 2
