"""Batched structure-of-arrays coalition simulation kernel (DESIGN.md §8).

The fair schedulers drive *many near-identical greedy simulations*: REF keeps
one engine per subcoalition (up to ``2^k``), RAND one per sampled prefix
coalition (up to ``N * k`` before deduplication).  Advancing each of them as a
separate :class:`~repro.core.engine.ClusterEngine` costs a Python event loop
per engine per decision time.  :class:`FleetKernel` replaces the whole family
with one structure-of-arrays simulation advanced in **vectorized lockstep**:

* ``(n_engines, n_machines)`` int64 matrices hold every engine's busy-until
  times (``_FAR`` where free/absent), running-job owner and start -- the
  flattened union of all the per-engine busy heaps;
* ``(n_engines, n_orgs)`` int64 matrices generalize the engines' psi_sp value
  ledgers: completed units / weighted starts and the running-job start
  moments ``(count, Σs, Σs²)``, by job owner and by machine owner;
* the job streams are shared: every engine sees the same canonical per-org
  job arrays, so one *global* release pointer per organization plus a
  per-(engine, org) started counter describe every engine's FIFO queues
  (engine ``e`` waits on exactly the org-``u`` jobs in ``[started[e,u],
  released[u])``);
* one chronological start log holds ``(row, time, machine, job)`` per
  start, the job as **(org, rank in the org's stream)**, never as a flat
  position: ingest splices into an org's unreleased tail, past every
  logged rank (``rank < started[e,u] <= released[u]``), so it never
  touches the log; readers resolve ``org_start[org] + rank`` when asked.

Lockstep invariant: all rows share one clock ``t``; completions and releases
at times ``<= t`` are processed for every engine in a handful of scatter
operations, and greedy fills run as *batched rounds* -- each round starts one
job per still-capable engine via a masked row ``argmax``/``argmin``, exactly
reproducing the per-engine selection loop (first-occurrence ``argmax`` is the
lowest-id tie-break).  Only engines **touched** by an event (a completion, or
a member organization's release) are filled, which is sound by the greedy
invariant: an untouched engine has no new free-machine/waiting-job pair.

Exactness: the kernel only engages when :func:`kernel_certified` proves from
the workload that *no ledger scalar nor any query at an event time can
overflow int64* (conservative bound over the total work and the latest
possible finish time).  Far-future value queries are still guarded per query
and fall back to exact Python-int arithmetic over the (certified exact)
int64 ledgers -- the same two-tier scheme as
:class:`~repro.core.fleet.CoalitionFleet`, with identical results.

Escape hatch: anything the arrays cannot express (adopting an externally
built engine, dynamic machine mutation, forking) triggers
:meth:`FleetKernel.materialize_row` -- the row is reconstructed as a real,
bit-identical :class:`~repro.core.engine.ClusterEngine` and the fleet
continues in per-engine mode.  :class:`KernelEngineView` gives read access to
one row through the ``ClusterEngine`` API in the meantime.

One level up, :class:`~repro.core.multikernel.MultiInstanceKernel`
(DESIGN.md §10) applies the same SoA trick *across problem instances*:
the rows of many independent single-instance simulations advance in
jagged lockstep with per-row clocks.  It shares this module's sentinels
and the :func:`_overflow_bound` certification arithmetic (applied per
instance there, since its rows never mix instances).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Iterable

import numpy as np

from .coalition import iter_members
from .engine import ClusterEngine, RunningJob, _partial_psi
from .job import Job
from .schedule import Schedule, ScheduledJob
from .workload import Workload

__all__ = [
    "FleetKernel",
    "KernelEngineView",
    "KernelUnsafe",
    "KERNEL_MIN_ENGINES",
    "kernel_certified",
]

#: Fleets with at least this many coalition engines dispatch to the kernel
#: (below it the per-event numpy overhead exceeds the Python loops saved;
#: a 31-engine fleet -- REF k=5, RAND k=5/N=75 -- is break-even or slightly
#: slower, a 63-engine fleet ~1.6x faster, 255 engines ~4x; PR 16 read
#: ``sweep_table1_k5`` at 19.0-19.9k ev/s here, 16.0-16.6k / 13.8-14.5k at
#: 16 / 1, and ``benchmarks/bench_smallk.py`` guards the 255-engine side).
KERNEL_MIN_ENGINES = 48

#: Sentinel finish time for a free (or absent) machine slot.  Far beyond any
#: certified event time, and small enough that comparisons cannot overflow.
_FAR = np.iinfo(np.int64).max // 4

#: Cap certified for every ledger scalar and every query intermediate at
#: event times (matches CoalitionFleet's guards).
_QUERY_CAP = 1 << 62

_I64_MIN = np.iinfo(np.int64).min


class KernelUnsafe(Exception):
    """Raised *before* any mutation when an operation cannot be absorbed
    without risking int64 overflow; the fleet materializes and retries."""


def _overflow_bound(total_units: int, max_release: int, n_machines: int) -> int:
    """Worst-case magnitude of any ledger scalar or query intermediate when
    events run no later than ``T = max_release + total_units`` (the serial
    makespan bound, valid for any greedy schedule on any subcoalition)."""
    t = max_release + total_units + 1
    u = total_units
    m = max(n_machines, 1)
    # units*t + wstart + rcount*(t²+t) + rsum*(2t+1) + rsq, each term bounded
    # with units <= U, wstart <= p·s + p² <= 2·U·t, rcount <= M,
    # rsum <= M·t, rsq <= M·t²  (starts and finishes never exceed t)
    return 4 * u * t + 6 * m * t * t + 16


def kernel_certified(workload: Workload, horizon: "int | None") -> bool:
    """True when int64 arithmetic provably cannot overflow for any event-time
    update or query on ``workload`` (the kernel precondition).  Coalition
    masks are stored as int64 rows, so workloads past 63 organizations
    (the approximation ladder's high-``k`` regime) are inadmissible and
    stay on the per-engine path."""
    if workload.n_orgs > 63:
        return False
    total = sum(j.size for j in workload.jobs)
    rel = max((j.release for j in workload.jobs), default=0)
    if horizon is not None:
        rel = max(rel, horizon)
    return _overflow_bound(total, rel, workload.n_machines) < _QUERY_CAP


class FleetKernel:
    """Structure-of-arrays lockstep simulation of one fleet of coalition
    engines over a frozen (but online-extensible) workload.

    Parameters
    ----------
    workload:
        The shared problem instance; every row simulates a sub-coalition of
        its organizations over its machine layout (canonical global ids).
    masks:
        One nonzero coalition bitmask per row, in fleet registration order.
    horizon:
        Optional stop time: greedy fills are suppressed at ``t >= horizon``
        (completions and releases still process, like
        :meth:`~repro.core.engine.ClusterEngine.advance_to`).
    events:
        The owning fleet's shared :class:`~repro.core.events.EventQueue`, or
        ``None`` when the fleet does not track decision events; batched
        starts push their completion times into it.
    """

    def __init__(
        self,
        workload: Workload,
        masks: "Iterable[int]",
        horizon: "int | None" = None,
        events=None,
    ) -> None:
        self.workload = workload
        self.horizon = horizon
        self.events = events
        self.masks = list(masks)
        self.k = workload.n_orgs
        n = len(self.masks)
        self.n = n
        k = self.k
        self._row = {m: i for i, m in enumerate(self.masks)}
        mask_arr = np.array(self.masks, dtype=np.int64)
        self.member = (mask_arr[:, None] >> np.arange(k, dtype=np.int64)) & 1
        self.member = self.member.astype(bool)

        # --- machines (canonical global ids) --------------------------------
        owners: list[int] = []
        for org in workload.organizations:
            owners.extend([org.id] * org.machines)
        self.machine_org = np.array(owners, dtype=np.int64)
        self.n_mach = len(owners)
        self.has_machine = (
            self.member[:, self.machine_org]
            if self.n_mach
            else np.zeros((n, 0), dtype=bool)
        )
        self.free = self.has_machine.copy()
        self.free_count = self.free.sum(axis=1).astype(np.int64)
        self.finish = np.full((n, self.n_mach), _FAR, dtype=np.int64)
        self.run_org = np.zeros((n, self.n_mach), dtype=np.int64)
        self.run_start = np.zeros((n, self.n_mach), dtype=np.int64)

        # --- shared job streams (canonical per-org order) -------------------
        per_org: list[list[Job]] = [[] for _ in range(k)]
        for j in sorted(workload.jobs):
            per_org[j.org].append(j)
        self.jobs_flat: list[Job] = [j for org in per_org for j in org]
        counts = np.array([len(o) for o in per_org], dtype=np.int64)
        self.org_start = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=self.org_start[1:])
        # one trailing sentinel pads the flat arrays so clipped gathers of an
        # exhausted / empty organization stay in bounds (never selected)
        self.rel_flat = np.fromiter(
            (j.release for j in self.jobs_flat),
            dtype=np.int64,
            count=len(self.jobs_flat),
        )
        self.size_flat = np.fromiter(
            (j.size for j in self.jobs_flat),
            dtype=np.int64,
            count=len(self.jobs_flat),
        )
        self.rel_flat = np.append(self.rel_flat, _FAR)
        self.size_flat = np.append(self.size_flat, 1)

        #: global per-org released-job counts (shared by every row)
        self.released = np.zeros(k, dtype=np.int64)
        #: per-(row, org) started-job counts; row e's FIFO queue for org u is
        #: the canonical org-u jobs in [started[e,u], released[u]).  Non-member
        #: cells hold the _FAR sentinel so ``started < released`` alone is the
        #: waiting predicate (no separate member mask in the hot loops).
        self.started = np.zeros((n, k), dtype=np.int64)
        self.started[~self.member] = _FAR

        # --- psi_sp ledgers ((n_engines, n_orgs) int64, certified exact) ---
        # by-machine-owner aggregates are *not* kept hot: they are exactly
        # reconstructible from the start log (DIRECTCONTR-style queries and
        # materialization are rare; completions are the hot path)
        self.done_units = np.zeros((n, k), dtype=np.int64)
        self.done_wstart = np.zeros((n, k), dtype=np.int64)
        self.rcount = np.zeros((n, k), dtype=np.int64)
        self.rsum = np.zeros((n, k), dtype=np.int64)
        self.rsq = np.zeros((n, k), dtype=np.int64)
        self.version = np.zeros(n, dtype=np.int64)

        # --- global chronological start log (SoA, grown geometrically) -----
        # _log_job packs the job identity as rank * k + org; 24 bytes per
        # start, times every coalition row, is most of a long run's memory
        cap = 256
        self._log_row = np.empty(cap, dtype=np.int32)
        self._log_start = np.empty(cap, dtype=np.int64)
        self._log_mach = np.empty(cap, dtype=np.int32)
        self._log_job = np.empty(cap, dtype=np.int64)
        self._log_len = 0

        self.t = 0
        self._used = False
        # running certification inputs (extended by submit)
        self._total_units = int(self.size_flat[:-1].sum())
        self._max_release = int(self.rel_flat[:-1].max()) if len(self.jobs_flat) else 0
        if horizon is not None:
            self._max_release = max(self._max_release, horizon)

        self._head_rel = np.full(k, _FAR, dtype=np.int64)
        self._org_clip = np.maximum(
            self.org_start[1:] - self.org_start[:-1] - 1, 0
        )
        self._refresh_head_rel()
        self._next_fin = _FAR

    # ------------------------------------------------------------------
    # event bookkeeping
    # ------------------------------------------------------------------
    def _refresh_head_rel(self) -> None:
        idx = np.minimum(self.org_start[:-1] + self.released, self.org_start[1:])
        have = self.org_start[:-1] + self.released < self.org_start[1:]
        self._head_rel = np.where(have, self.rel_flat[idx], _FAR)
        self._next_rel = int(self._head_rel.min()) if self.k else _FAR

    def next_event_time(self) -> "int | None":
        """Next release or completion strictly tracking the engines' union
        (``None`` when exhausted or at/after the horizon)."""
        t = min(self._next_fin, self._next_rel)
        if t >= _FAR:
            return None
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    def has_event_at_or_before(self, t: int) -> bool:
        return min(self._next_fin, self._next_rel) <= t

    # ------------------------------------------------------------------
    # lockstep advancement
    # ------------------------------------------------------------------
    def _complete_upto(self, t: int) -> "np.ndarray | None":
        """Process every completion with finish ``<= t``; returns the row
        indices that completed something (or ``None`` when none did)."""
        if self._next_fin > t:
            return None
        # flat slot / cell indices on reshape(-1) views (the arrays are
        # C-contiguous and owned here); two machines of a row can finish
        # the same org's jobs at one t, so cells repeat: np.add.at
        fin = self.finish.reshape(-1)
        slot = np.flatnonzero(fin <= t)
        if not slot.size:
            return None
        e = slot // self.n_mach
        starts = self.run_start.reshape(-1)[slot]
        sizes = fin[slot] - starts
        tri = sizes * starts + sizes * (sizes - 1) // 2
        cell = e * self.k + self.run_org.reshape(-1)[slot]
        np.add.at(self.done_units.reshape(-1), cell, sizes)
        np.add.at(self.done_wstart.reshape(-1), cell, tri)
        np.add.at(self.rcount.reshape(-1), cell, -1)
        np.add.at(self.rsum.reshape(-1), cell, -starts)
        np.add.at(self.rsq.reshape(-1), cell, -(starts * starts))
        fin[slot] = _FAR
        self.free.reshape(-1)[slot] = True
        np.add.at(self.free_count, e, 1)
        np.add.at(self.version, e, 1)
        self._next_fin = int(fin.min()) if fin.size else _FAR
        return e

    def _release_upto(self, t: int) -> "np.ndarray | None":
        """Advance the global release pointers past every job released at
        ``<= t``; returns the org ids that released (or ``None``)."""
        if self._next_rel > t:
            return None
        hit = np.flatnonzero(self._head_rel <= t)
        for u in hit:
            lo = int(self.org_start[u] + self.released[u])
            hi = int(self.org_start[u + 1])
            self.released[u] += int(
                np.searchsorted(self.rel_flat[lo:hi], t, side="right")
            )
        self._refresh_head_rel()
        return hit

    def advance(self, t: int) -> None:
        """Process all completions and releases at times ``<= t`` for every
        row at once (the no-starts lockstep of ``CoalitionFleet.advance_all``;
        starts between events are the caller's job)."""
        if t < self.t:
            raise ValueError(f"cannot advance backwards ({self.t} -> {t})")
        self._used = True
        self._complete_upto(t)
        self._release_upto(t)
        self.t = t

    def drive_fifo(self, until: int) -> None:
        """Drive every row's own greedy FIFO loop to ``until`` (events at
        ``until`` included) in lockstep over the union of event times, then
        align all clocks with ``until`` -- the batched equivalent of
        ``engine.drive(fifo_select, until)`` per engine."""
        if until < self.t:
            raise ValueError(f"cannot advance backwards ({self.t} -> {until})")
        self._used = True
        while True:
            tn = min(self._next_fin, self._next_rel)
            if tn > until or tn >= _FAR:
                break
            comp_rows = self._complete_upto(tn)
            rel_orgs = self._release_upto(tn)
            self.t = tn
            if self.horizon is not None and tn >= self.horizon:
                continue  # completions/releases only; no starts past horizon
            touched = np.zeros(self.n, dtype=bool)
            if comp_rows is not None:
                touched[comp_rows] = True
            if rel_orgs is not None and rel_orgs.size:
                touched |= self.member[:, rel_orgs].any(axis=1)
            rows = np.flatnonzero(touched & (self.free_count > 0))
            self._fill_fifo(rows, tn)
        self.t = until

    def _fill_fifo(self, rows: np.ndarray, t: int) -> None:
        """Batched greedy-FIFO rounds: start the (earliest head release,
        lowest org) job on every still-capable row until none remains."""
        while rows.size:
            wait = self.started[rows] < self.released
            cap = (self.free_count[rows] > 0) & wait.any(axis=1)
            if not cap.all():
                rows = rows[cap]
                if not rows.size:
                    return
                wait = wait[cap]
            idx = self.org_start[:-1] + np.minimum(
                self.started[rows], self._org_clip
            )
            hr = np.where(wait, self.rel_flat[idx], _FAR)
            sel = hr.argmin(axis=1)  # first min == lowest org id tie-break
            self._start_batch(rows, sel, t)

    def fill_rows(
        self, rows: np.ndarray, keys: "np.ndarray | None", t: int
    ) -> None:
        """Batched ``fill_capacity``: repeatedly start the FIFO-head job of
        the waiting organization maximizing ``keys[row, org]`` (ties: lowest
        org id) on every row while it has a free machine and waiting work.

        ``keys`` is aligned with ``rows`` (shape ``(len(rows), n_orgs)``) and
        must be exact in int64 (the caller guards the subtraction); ``None``
        when no row has two organizations waiting, so every start is forced
        (a masked argmax over one candidate returns it for any key).

        A row makes exactly ``min(free machines, waiting jobs)`` starts, so
        the rounds run off a waiting-count matrix and that per-row budget
        and end with the last start.
        """
        self._used = True
        if keys is not None:
            keys = np.asarray(keys, dtype=np.int64)
        wcount = self.released - self.started[rows]  # non-member cells << 0
        wait = wcount > 0
        left = np.minimum(
            self.free_count[rows], wcount.sum(axis=1, where=wait)
        )
        while True:
            live = left > 0
            if not live.all():
                rows, left = rows[live], left[live]
                wcount, wait = wcount[live], wait[live]
                if keys is not None:
                    keys = keys[live]
            if not rows.size:
                return
            if keys is None:
                sel = wait.argmax(axis=1)
            else:  # first max == lowest org id tie-break
                sel = np.where(wait, keys, _I64_MIN).argmax(axis=1)
            self._start_batch(rows, sel, t)
            left -= 1
            if not left.any():
                return  # that was every row's last start
            wcount[np.arange(len(rows)), sel] -= 1
            wait = wcount > 0

    def _start_batch(self, rows: np.ndarray, sel: np.ndarray, t: int) -> None:
        """Start org ``sel[i]``'s FIFO-head job on row ``rows[i]``'s lowest
        free machine, for all ``i`` at once (``rows`` are distinct, so the
        flat cell ``rows*k + org`` and slot ``rows*n_mach + mach`` indices
        never repeat and plain in-place updates are exact)."""
        cell = rows * self.k + sel
        started = self.started.reshape(-1)
        jidx = started[cell]
        fins = t + self.size_flat[self.org_start[sel] + jidx]
        mach = self.free[rows].argmax(axis=1)  # first True == lowest free id
        slot = rows * self.n_mach + mach
        self.finish.reshape(-1)[slot] = fins
        self.run_org.reshape(-1)[slot] = sel
        self.run_start.reshape(-1)[slot] = t
        self.free.reshape(-1)[slot] = False
        self.free_count[rows] -= 1
        started[cell] = jidx + 1
        self.rcount.reshape(-1)[cell] += 1
        self.rsum.reshape(-1)[cell] += t
        self.rsq.reshape(-1)[cell] += t * t
        self.version[rows] += 1
        nf = int(fins.min())
        if nf < self._next_fin:
            self._next_fin = nf
        self._log_append(rows, mach, jidx * self.k + sel, t)
        if self.events is not None:
            for end in set(fins.tolist()):
                self.events.push(end)

    def _log_append(self, rows, mach, job, t) -> None:
        b = len(rows)
        need = self._log_len + b
        if need > len(self._log_row):
            cap = max(need, 2 * len(self._log_row))
            for name in ("_log_row", "_log_start", "_log_mach", "_log_job"):
                old = getattr(self, name)
                new = np.empty(cap, dtype=old.dtype)
                new[: self._log_len] = old[: self._log_len]
                setattr(self, name, new)
        s = slice(self._log_len, need)
        self._log_row[s] = rows
        self._log_start[s] = t
        self._log_mach[s] = mach
        self._log_job[s] = job
        self._log_len = need

    def _log_flat(self, idx) -> np.ndarray:
        """Current flat stream positions of the log entries ``idx``."""
        rank, org = np.divmod(self._log_job[idx], self.k)
        return self.org_start[org] + rank

    # ------------------------------------------------------------------
    # single-row actions (the per-engine API surface)
    # ------------------------------------------------------------------
    def start_row(
        self, row: int, org: int, machine: "int | None" = None, *, t=None
    ) -> ScheduledJob:
        """Start ``org``'s FIFO-head job on one row (explicit or lowest-id
        free machine) -- the kernel's ``engine.start_next``."""
        self._used = True
        t = self.t if t is None else t
        if not (
            0 <= org < self.k
            and self.member[row, org]
            and self.started[row, org] < self.released[org]
        ):
            raise ValueError(f"org {org} has no waiting job at t={t}")
        if self.free_count[row] <= 0:
            raise ValueError(f"no free machine at t={t}")
        if machine is None:
            machine = int(self.free[row].argmax())
        elif not (0 <= machine < self.n_mach and self.free[row, machine]):
            raise ValueError(f"machine {machine} is not free at t={t}")
        rank = int(self.started[row, org])
        job = self.jobs_flat[int(self.org_start[org]) + rank]
        self.finish[row, machine] = t + job.size
        self.run_org[row, machine] = org
        self.run_start[row, machine] = t
        self.free[row, machine] = False
        self.free_count[row] -= 1
        self.started[row, org] += 1
        self.rcount[row, org] += 1
        self.rsum[row, org] += t
        self.rsq[row, org] += t * t
        self.version[row] += 1
        if t + job.size < self._next_fin:
            self._next_fin = t + job.size
        self._log_append(
            np.array([row], dtype=np.int64),
            np.array([machine], dtype=np.int64),
            np.array([rank * self.k + org], dtype=np.int64),
            t,
        )
        return ScheduledJob(t, machine, job)

    @staticmethod
    def _splice_one(arr: np.ndarray, pos: int, value: int) -> np.ndarray:
        out = np.empty(len(arr) + 1, dtype=np.int64)
        out[:pos] = arr[:pos]
        out[pos] = value
        out[pos + 1 :] = arr[pos:]
        return out

    def submit(self, job: Job) -> None:
        """Inject one job into the shared stream (online ingestion): every
        row covering ``job.org`` sees it, in canonical order.  Raises
        :class:`KernelUnsafe` *before mutating* when absorbing the job could
        break the int64 certification."""
        if job.release < self.t:
            raise ValueError(
                f"cannot submit into the past (release {job.release} < "
                f"engine time {self.t})"
            )
        total = self._total_units + job.size
        rel = max(self._max_release, job.release)
        if _overflow_bound(total, rel, self.n_mach) >= _QUERY_CAP:
            raise KernelUnsafe("job pushes the int64 certification bound")
        self._used = True
        u = job.org
        lo = int(self.org_start[u] + self.released[u])
        hi = int(self.org_start[u + 1])
        pos = bisect_right(self.jobs_flat, job, lo, hi)
        self.jobs_flat.insert(pos, job)
        # manual splice: ~5x cheaper than np.insert's generic machinery on
        # this per-op hot path (online ingest runs it once per job)
        self.rel_flat = self._splice_one(self.rel_flat, pos, job.release)
        self.size_flat = self._splice_one(self.size_flat, pos, job.size)
        self.org_start[u + 1 :] += 1
        self._total_units = total
        self._max_release = rel
        self._org_clip = np.maximum(
            self.org_start[1:] - self.org_start[:-1] - 1, 0
        )
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------
    def _query_safe(self, t: int) -> bool:
        """Certify one int64 evaluation at ``t`` -- CoalitionFleet's
        ``_vector_safe`` from the construction-time component bounds (every
        ledger scalar is bounded by the certified ``U``/``T``/``M``
        quantities, so no per-query column maxima are needed)."""
        if t < 0:
            return False
        T = self._max_release + self._total_units + 1
        if t <= T:  # certified once at construction / submit
            return True
        tt = t * t + t
        if tt >= _QUERY_CAP:
            return False
        u = self._total_units
        m = max(self.n_mach, 1)
        bound = (
            u * t + 2 * u * T + m * tt + m * T * (2 * t + 1) + m * T * T
        )
        return bound < _QUERY_CAP

    def _ledger_rows(self):
        """Row totals of the five value aggregates (int64 vectors)."""
        return (
            self.done_units.sum(axis=1),
            self.done_wstart.sum(axis=1),
            self.rcount.sum(axis=1),
            self.rsum.sum(axis=1),
            self.rsq.sum(axis=1),
        )

    def values_i64(self, t: int) -> "np.ndarray | None":
        """All row values at ``t`` (``t >= self.t``) as int64, or ``None``
        when the per-query overflow guard cannot certify the evaluation."""
        if not self._query_safe(t):
            return None
        units, wstart, rc, rs, rq = self._ledger_rows()
        return units * t - wstart + (rc * (t * t + t) - rs * (2 * t + 1) + rq) // 2

    def values_exact(self, t: int) -> "list[int]":
        """All row values at ``t >= self.t`` in exact Python ints (the
        overflow fallback; the int64 ledgers are exact by certification)."""
        units, wstart, rc, rs, rq = (
            col.tolist() for col in self._ledger_rows()
        )
        tt = t * t + t
        return [
            u * t - w + (c * tt - s * (2 * t + 1) + q) // 2
            for u, w, c, s, q in zip(units, wstart, rc, rs, rq)
        ]

    def values_retro(self, t: int) -> "np.ndarray":
        """All row values at a *past* time ``t < self.t``, re-derived from
        the chronological start log (int64-safe: ``t`` precedes certified
        event times)."""
        n = self._log_len
        out = np.zeros(self.n, dtype=np.int64)
        if not n:
            return out
        starts = self._log_start[:n]
        sizes = self.size_flat[self._log_flat(slice(n))]
        c = np.clip(t - starts, 0, sizes)
        vals = c * (t - starts) - c * (c - 1) // 2
        np.add.at(out, self._log_row[:n], vals)
        return out

    def psis_matrix(self, t: int) -> "np.ndarray | None":
        """Per-(row, org) psi_sp at ``t >= self.t`` as int64, or ``None``
        when the per-query guard trips (fall back to exact row queries)."""
        if not self._query_safe(t):
            return None
        return (
            self.done_units * t
            - self.done_wstart
            + (
                self.rcount * (t * t + t)
                - self.rsum * (2 * t + 1)
                + self.rsq
            )
            // 2
        )

    # ------------------------------------------------------------------
    # per-row exact queries (view/materialization substrate)
    # ------------------------------------------------------------------
    def row_log_indices(self, row: int) -> np.ndarray:
        return np.flatnonzero(self._log_row[: self._log_len] == row)

    def row_entries(self, row: int) -> "list[ScheduledJob]":
        """The row's start log in chronological order (exact objects)."""
        idx = self.row_log_indices(row)
        jobs = self.jobs_flat
        return [
            ScheduledJob(start, mach, jobs[flat])
            for start, mach, flat in zip(
                self._log_start[idx].tolist(),
                self._log_mach[idx].tolist(),
                self._log_flat(idx).tolist(),
            )
        ]

    def row_psis(self, row: int, t: "int | None" = None) -> "list[int]":
        """One row's per-org psi_sp at ``t`` in exact Python ints (matches
        ``ClusterEngine.psis`` for past, present and future ``t``)."""
        t = self.t if t is None else t
        if t < self.t:
            out = [0] * self.k
            for e in self.row_entries(row):
                out[e.job.org] += _partial_psi(e.start, e.job.size, t)
            return out
        du = self.done_units[row].tolist()
        dw = self.done_wstart[row].tolist()
        out = [u * t - w for u, w in zip(du, dw)]
        for m in np.flatnonzero(self.finish[row] < _FAR):
            s = int(self.run_start[row, m])
            size = int(self.finish[row, m]) - s
            out[int(self.run_org[row, m])] += _partial_psi(s, size, t)
        return out

    def row_psis_by_machine_owner(
        self, row: int, t: "int | None" = None
    ) -> "list[int]":
        """psi_sp of the work executed on each org's machines, re-derived
        from the start log (``_partial_psi`` caps at the job size, so one
        formula covers completed, running and retrospective queries)."""
        t = self.t if t is None else t
        out = [0] * self.k
        for e in self.row_entries(row):
            out[int(self.machine_org[e.machine])] += _partial_psi(
                e.start, e.job.size, t
            )
        return out

    def row_value(self, row: int, t: "int | None" = None) -> int:
        t = self.t if t is None else t
        if t < self.t:
            total = 0
            for e in self.row_entries(row):
                total += _partial_psi(e.start, e.job.size, t)
            return total
        return sum(self.row_psis(row, t))

    # ------------------------------------------------------------------
    # materialization (the escape hatch back to real engines)
    # ------------------------------------------------------------------
    def materialize_row(self, row: int) -> ClusterEngine:
        """Reconstruct this row as a real, bit-identical
        :class:`~repro.core.engine.ClusterEngine` (same schedule, ledgers,
        stream position, free set and pending queues)."""
        mask = self.masks[row]
        members = tuple(sorted(iter_members(mask)))
        eng = object.__new__(ClusterEngine)
        eng.workload = self.workload
        eng.n_orgs = self.k
        eng.members = members
        eng.horizon = self.horizon
        member_set = set(members)
        eng.machine_owner = {
            int(m): int(self.machine_org[m])
            for m in range(self.n_mach)
            if self.has_machine[row, m]
        }
        eng.n_machines = len(eng.machine_owner)
        eng._free = sorted(int(m) for m in np.flatnonzero(self.free[row]))
        eng._free_set = set(eng._free)
        heapq.heapify(eng._free)
        # shared canonical stream, restricted to members (includes submits)
        stream = sorted(j for j in self.jobs_flat if j.org in member_set)
        eng._stream = stream
        eng._stream_pos = int(
            sum(self.released[u] for u in members)
        )
        eng._pending = {}
        for u in members:
            lo = int(self.org_start[u] + self.started[row, u])
            hi = int(self.org_start[u] + self.released[u])
            eng._pending[u] = deque(self.jobs_flat[lo:hi])
        eng._n_waiting = int(sum(len(q) for q in eng._pending.values()))
        eng.t = self.t
        running_m = np.flatnonzero(self.finish[row] < _FAR)
        eng._busy = [
            (int(self.finish[row, m]), int(m)) for m in running_m
        ]
        heapq.heapify(eng._busy)
        eng._running = {}
        for m in running_m.tolist():
            job = self._find_running_job(row, m)
            eng._running[m] = RunningJob(job, int(self.run_start[row, m]), m)
        eng._retiring = set()
        eng._retired = set()
        eng._done_units = self.done_units[row].tolist()
        eng._done_wstart = self.done_wstart[row].tolist()
        # by-machine-owner aggregates over *completed* jobs, from the log
        eng._done_units_mach = [0] * self.k
        eng._done_wstart_mach = [0] * self.k
        entries = self.row_entries(row)
        for e in entries:
            if e.end <= self.t:
                p = e.job.size
                owner = int(self.machine_org[e.machine])
                eng._done_units_mach[owner] += p
                eng._done_wstart_mach[owner] += p * e.start + p * (p - 1) // 2
        eng._tot_units = int(self.done_units[row].sum())
        eng._tot_wstart = int(self.done_wstart[row].sum())
        eng._run_start_sum = int(self.rsum[row].sum())
        eng._run_start_sq = int(self.rsq[row].sum())
        eng.version = int(self.version[row])
        eng._log = entries
        eng._completed = sorted(
            (e for e in entries if e.end <= self.t),
            key=lambda e: (e.end, e.machine),
        )
        return eng

    def _find_running_job(self, row: int, machine: int) -> Job:
        """The Job object running on ``(row, machine)`` via the start log."""
        idx = self.row_log_indices(row)
        for i in idx[::-1]:  # most recent start on that machine wins
            if int(self._log_mach[i]) == machine:
                return self.jobs_flat[int(self._log_flat(i))]
        raise RuntimeError(
            f"no log entry for running job on row {row} machine {machine}"
        )  # pragma: no cover - running implies a logged start


class KernelEngineView:
    """Read-only :class:`~repro.core.engine.ClusterEngine` facade over one
    kernel row.

    Every accessor first checks whether the owning fleet has materialized
    (escaped to real engines) and then delegates, so a held view stays valid
    across materialization.  Mutating calls trigger materialization
    themselves and are forwarded to the real engine.
    """

    __slots__ = ("_fleet", "_mask", "_bound")

    def __init__(self, fleet, mask: int):
        self._fleet = fleet
        self._mask = mask
        #: set at fleet materialization: the real engine this view stands
        #: for, *permanently* (callers expect engine() handles to keep
        #: pointing at the same simulation even after the fleet row is
        #: swapped by replace_engine, exactly like real engine references)
        self._bound: "ClusterEngine | None" = None

    # -- delegation plumbing -------------------------------------------------
    def _real(self) -> "ClusterEngine | None":
        if self._bound is not None:
            return self._bound
        return self._fleet._engines.get(self._mask)

    def _escape(self, reason: str = "view_mutation") -> ClusterEngine:
        self._fleet._materialize(reason)
        return self._real()

    def _kr(self):
        """(kernel, row) for the live-kernel path (caller checked _real)."""
        kern = self._fleet.kernel  # property: builds a stale kernel lazily
        return kern, kern._row[self._mask]

    # -- identity ------------------------------------------------------------
    @property
    def workload(self):
        real = self._real()
        return real.workload if real is not None else self._fleet.workload

    @property
    def horizon(self):
        real = self._real()
        return real.horizon if real is not None else self._fleet.horizon

    @property
    def members(self) -> "tuple[int, ...]":
        real = self._real()
        if real is not None:
            return real.members
        return tuple(sorted(iter_members(self._mask)))

    @property
    def n_orgs(self) -> int:
        real = self._real()
        if real is not None:
            return real.n_orgs
        return self._fleet.workload.n_orgs

    @property
    def t(self) -> int:
        real = self._real()
        if real is not None:
            return real.t
        return self._fleet.kernel.t

    @property
    def version(self) -> int:
        real = self._real()
        if real is not None:
            return real.version
        kern, row = self._kr()
        return int(kern.version[row])

    @property
    def machine_owner(self) -> "dict[int, int]":
        real = self._real()
        if real is not None:
            return real.machine_owner
        kern, row = self._kr()
        return {
            int(m): int(kern.machine_org[m])
            for m in np.flatnonzero(kern.has_machine[row])
        }

    @property
    def n_machines(self) -> int:
        real = self._real()
        if real is not None:
            return real.n_machines
        kern, row = self._kr()
        return int(kern.has_machine[row].sum())

    # -- scheduler-facing state ---------------------------------------------
    @property
    def free_count(self) -> int:
        real = self._real()
        if real is not None:
            return real.free_count
        kern, row = self._kr()
        return int(kern.free_count[row])

    def free_machines(self) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.free_machines()
        kern, row = self._kr()
        return [int(m) for m in np.flatnonzero(kern.free[row])]

    def has_waiting(self) -> bool:
        real = self._real()
        if real is not None:
            return real.has_waiting()
        kern, row = self._kr()
        return bool((kern.started[row] < kern.released).any())

    def waiting_count(self, org: int) -> int:
        real = self._real()
        if real is not None:
            return real.waiting_count(org)
        kern, row = self._kr()
        if not kern.member[row, org]:
            raise KeyError(org)
        return int(kern.released[org] - kern.started[row, org])

    def waiting_orgs(self) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.waiting_orgs()
        kern, row = self._kr()
        return [
            int(u)
            for u in np.flatnonzero(kern.started[row] < kern.released)
        ]

    def head_release(self, org: int) -> int:
        real = self._real()
        if real is not None:
            return real.head_release(org)
        kern, row = self._kr()
        if kern.started[row, org] >= kern.released[org]:
            raise IndexError(f"org {org} has no waiting job")
        return int(kern.rel_flat[kern.org_start[org] + kern.started[row, org]])

    def running_count(self, org: int) -> int:
        real = self._real()
        if real is not None:
            return real.running_count(org)
        kern, row = self._kr()
        return int(kern.rcount[row, org])

    def running_counts(self) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.running_counts()
        kern, row = self._kr()
        return kern.rcount[row].tolist()

    def running_on(self, machine: int) -> "RunningJob | None":
        real = self._real()
        if real is not None:
            return real.running_on(machine)
        kern, row = self._kr()
        if not (0 <= machine < kern.n_mach) or kern.finish[row, machine] >= _FAR:
            return None
        s = int(kern.run_start[row, machine])
        return RunningJob(kern._find_running_job(row, machine), s, machine)

    def consumed_cpu(self, org: int, t: "int | None" = None) -> int:
        real = self._real()
        if real is not None:
            return real.consumed_cpu(org, t)
        kern, row = self._kr()
        t = kern.t if t is None else t
        total = int(kern.done_units[row, org])
        for m in np.flatnonzero(kern.finish[row] < _FAR):
            if int(kern.run_org[row, m]) == org:
                total += min(t, int(kern.finish[row, m])) - int(
                    kern.run_start[row, m]
                )
        return total

    def machine_counts(self) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.machine_counts()
        kern, row = self._kr()
        return np.bincount(
            kern.machine_org[kern.has_machine[row]], minlength=kern.k
        ).tolist()

    # -- utilities -----------------------------------------------------------
    def psi(self, org: int, t: "int | None" = None) -> int:
        real = self._real()
        if real is not None:
            return real.psi(org, t)
        kern, row = self._kr()
        return kern.row_psis(row, t)[org]

    def psis(self, t: "int | None" = None) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.psis(t)
        kern, row = self._kr()
        return kern.row_psis(row, t)

    def psis_by_machine_owner(self, t: "int | None" = None) -> "list[int]":
        real = self._real()
        if real is not None:
            return real.psis_by_machine_owner(t)
        kern, row = self._kr()
        return kern.row_psis_by_machine_owner(row, t)

    def value(self, t: "int | None" = None) -> int:
        real = self._real()
        if real is not None:
            return real.value(t)
        kern, row = self._kr()
        return kern.row_value(row, t)

    def ledger(self) -> "tuple[int, int, int, int, int]":
        real = self._real()
        if real is not None:
            return real.ledger()
        kern, row = self._kr()
        return (
            int(kern.done_units[row].sum()),
            int(kern.done_wstart[row].sum()),
            int(kern.rcount[row].sum()),
            int(kern.rsum[row].sum()),
            int(kern.rsq[row].sum()),
        )

    # -- event iteration -----------------------------------------------------
    def next_event_time(self) -> "int | None":
        real = self._real()
        if real is not None:
            return real.next_event_time()
        kern, row = self._kr()
        cands = []
        fin = kern.finish[row]
        if fin.size:
            nf = int(fin.min())
            if nf < _FAR:
                cands.append(nf)
        for u in np.flatnonzero(kern.member[row]):
            lo = int(kern.org_start[u] + kern.released[u])
            if lo < int(kern.org_start[u + 1]):
                cands.append(int(kern.rel_flat[lo]))
        if not cands:
            return None
        t = min(cands)
        if kern.horizon is not None and t >= kern.horizon:
            return None
        return t

    def has_event_at_or_before(self, t: int) -> bool:
        real = self._real()
        if real is not None:
            return real.has_event_at_or_before(t)
        kern, row = self._kr()
        fin = kern.finish[row]
        if fin.size and int(fin.min()) <= t:
            return True
        for u in np.flatnonzero(kern.member[row]):
            lo = int(kern.org_start[u] + kern.released[u])
            if lo < int(kern.org_start[u + 1]) and int(kern.rel_flat[lo]) <= t:
                return True
        return False

    def is_idle(self) -> bool:
        real = self._real()
        if real is not None:
            return real.is_idle()
        kern, row = self._kr()
        return int(kern.rcount[row].sum()) == 0 and not self.has_waiting()

    def done(self) -> bool:
        real = self._real()
        if real is not None:
            return real.done()
        kern, row = self._kr()
        member = kern.member[row]
        released_all = bool(
            (
                kern.released[member]
                == (kern.org_start[1:] - kern.org_start[:-1])[member]
            ).all()
        )
        return released_all and self.is_idle()

    # -- results -------------------------------------------------------------
    @property
    def completed_log(self) -> "list[ScheduledJob]":
        real = self._real()
        if real is not None:
            return real.completed_log
        kern, row = self._kr()
        return sorted(
            (e for e in kern.row_entries(row) if e.end <= kern.t),
            key=lambda e: (e.end, e.machine),
        )

    @property
    def start_log(self) -> "list[ScheduledJob]":
        real = self._real()
        if real is not None:
            return real.start_log
        kern, row = self._kr()
        return kern.row_entries(row)

    def schedule(self) -> Schedule:
        real = self._real()
        if real is not None:
            return real.schedule()
        kern, row = self._kr()
        return Schedule(kern.row_entries(row))

    def busy_units(self, t: "int | None" = None) -> int:
        real = self._real()
        if real is not None:
            return real.busy_units(t)
        kern, row = self._kr()
        t = kern.t if t is None else t
        return sum(
            min(e.job.size, max(0, t - e.start)) for e in kern.row_entries(row)
        )

    def utilization(self, t: "int | None" = None) -> float:
        real = self._real()
        if real is not None:
            return real.utilization(t)
        t = self._fleet.kernel.t if t is None else t
        n_mach = self.n_machines
        if t <= 0 or n_mach == 0:
            return 0.0
        return self.busy_units(t) / (t * n_mach)

    # -- mutators (materialize, then delegate) -------------------------------
    def start_next(self, org: int, machine: "int | None" = None) -> ScheduledJob:
        real = self._real()
        if real is not None:
            return real.start_next(org, machine=machine)
        kern, row = self._kr()
        return kern.start_row(row, org, machine)

    def submit(self, job: Job) -> None:
        real = self._real() or self._escape()
        real.submit(job)

    def add_machine(self, machine: int, owner: int) -> None:
        real = self._real() or self._escape()
        real.add_machine(machine, owner)

    def retire_machine(self, machine: int) -> None:
        real = self._real() or self._escape()
        real.retire_machine(machine)

    def add_member(self, org: int) -> None:
        real = self._real() or self._escape()
        real.add_member(org)

    def remove_member(self, org: int) -> None:
        real = self._real() or self._escape()
        real.remove_member(org)

    def fork(self) -> ClusterEngine:
        real = self._real() or self._escape()
        return real.fork()

    def advance_to(self, t: int) -> None:
        real = self._real() or self._escape()
        real.advance_to(t)

    def drive(self, select, until: "int | None" = None) -> None:
        real = self._real() or self._escape()
        real.drive(select, until=until)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelEngineView(mask={self._mask:#b})"
