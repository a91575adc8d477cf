"""Batched structure-of-arrays coalition simulation kernel (DESIGN.md §8).

The fair schedulers drive *many near-identical greedy simulations*: REF keeps
one engine per subcoalition (up to ``2^k``), RAND one per sampled prefix
coalition (up to ``N * k`` before deduplication).  Advancing each of them as a
separate :class:`~repro.core.engine.ClusterEngine` costs a Python event loop
per engine per decision time.  :class:`FleetKernel` replaces the whole family
with one structure-of-arrays simulation advanced in **vectorized lockstep**.

Every row's state is one :class:`RowRecord` of named arrays: the
flattened busy heaps, the psi_sp ledgers, and a chronological start log
that names each job by **(org, rank in the org's stream)**, never by flat
position, so ingest (which splices into an org's unreleased tail, past
every logged rank) never touches it.  The record owns every write to that
state and the reads both kernels make of it.

The job streams are shared, not per row: one *global* release pointer per
organization plus the started counts describe every row's FIFO queues
(row ``e`` waits on the org-``u`` jobs in ``[started[e,u], released[u])``).
:meth:`FleetKernel._derive` rebuilds the kernel's caches from the record,
the streams and the horizon.

Lockstep invariant: all rows share one clock ``t``; completions and releases
at times ``<= t`` are processed for every engine in a handful of scatter
operations, and greedy fills run as *batched rounds* -- each round starts one
job per still-capable engine via a masked row ``argmax``/``argmin``, exactly
reproducing the per-engine selection loop (first-occurrence ``argmax`` is the
lowest-id tie-break).  Only engines **touched** by an event (a completion, or
a member organization's release) are filled, which is sound by the greedy
invariant: an untouched engine has no new free-machine/waiting-job pair.
Two cached scalars, the earliest running finish and the earliest pending
release of an organization some row simulates, give
:meth:`FleetKernel.next_event_time`: the owning fleet's next decision
time, recorded nowhere else.

Exactness: the kernel only engages when :func:`kernel_certified` proves from
the workload that *no ledger scalar nor any query at an event time can
overflow int64* (conservative bound over the total work and the latest
possible finish time).  Far-future value queries are still guarded per query
and fall back to exact Python-int arithmetic over the (certified exact)
int64 ledgers, with results identical to the per-engine
:class:`~repro.core.fleet.CoalitionFleet`'s exact values.

Escape hatch: a caller that needs what the arrays cannot express (adopting
an externally built engine, a join's fork, a machine-pool change) first
calls :meth:`~repro.core.fleet.CoalitionFleet.materialize` with its reason:
:meth:`FleetKernel.materialize_row` reconstructs every row as a real,
bit-identical :class:`~repro.core.engine.ClusterEngine` and the fleet
continues in per-engine mode.  Until then :class:`KernelEngineView` is a
read-only adapter over one row, carrying only the ``ClusterEngine`` members
the schedulers and the service read.

One level up, :class:`~repro.core.multikernel.MultiInstanceKernel`
(DESIGN.md §10) applies the same SoA trick *across problem instances*:
the rows of many independent single-instance simulations advance in
jagged lockstep with per-row clocks.  It keeps its rows in a
:class:`RowRecord` too (passing each row's clock where this kernel
passes its one ``t``), and shares this module's sentinels and the
:func:`_overflow_bound` certification arithmetic (applied per instance
there, since its rows never mix instances).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Iterable

import numpy as np

from .coalition import iter_members
from .engine import ClusterEngine, _partial_psi
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
#: (below it the per-event numpy overhead exceeds the Python loops saved).
#: RAND's k=5/N=15 oracle (25-31 engines) is the Table 1 case: one
#: ``sweep_table1_k5`` pipeline call takes 0.48 s at 48, 0.61-0.62 s at 24
#: or 8 and 0.69 s at 1 (best of 3, 2 cores), and its oracle alone is
#: 1.7-1.9x faster on engines; a 63-engine fleet is ~1.6x faster on the
#: kernel, 255 engines ~4x.  ``benchmarks/bench_smallk.py`` guards both
#: sides (the RAND k=5 oracle on engines, REF k=8 and the RAND k=8/N=75
#: oracle on the kernel).
KERNEL_MIN_ENGINES = 48

#: Sentinel finish time for a free (or absent) machine slot.  Far beyond any
#: certified event time, and small enough that comparisons cannot overflow.
_FAR = np.iinfo(np.int64).max // 4

#: Cap certified for every ledger scalar and every query intermediate at
#: event times (a per-engine CoalitionFleet hands int64 values under it).
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
    update or query on ``workload`` (the kernel precondition)."""
    total = sum(j.size for j in workload.jobs)
    rel = max((j.release for j in workload.jobs), default=0)
    if horizon is not None:
        rel = max(rel, horizon)
    return _overflow_bound(total, rel, workload.n_machines) < _QUERY_CAP


class RowRecord:
    """The per-row simulation state both coalition kernels keep, and every
    write to it (DESIGN.md §8.2).

    ``member`` ``(n, k)`` and ``has_machine`` ``(n, M)`` fix what each row
    simulates.  The row × machine slots (``free``, ``free_count``,
    ``finish``, ``run_org``, ``run_start``) and the row × org ``started``
    counts and psi_sp ledgers (``done_units``, ``done_wstart``, ``rcount``,
    ``rsum``, ``rsq``) are the flattened engines.  ``started`` holds the
    ``_FAR`` sentinel in non-member cells, so ``started < released`` alone
    is the waiting predicate.  By-machine-owner aggregates are not kept:
    they are exactly reconstructible from the start log, and the queries
    that need them are rare while completions are the hot path.  The
    chronological start log is four growing columns (``log_row``/
    ``log_mach`` int32, ``log_start``/``log_job`` int64: 24 bytes per
    start, which times every coalition row is most of a long run's
    memory) with ``log_len`` live entries; a job is logged as
    ``rank * k + org``.

    A ``t`` below is one clock, or one clock per row as a column aligned
    with the rows it touches (``(n, 1)`` for every row, ``(len(rows),)``
    for :meth:`start`): numpy broadcasting serves both kernels.
    """

    def __init__(self, member: np.ndarray, has_machine: np.ndarray) -> None:
        n, k = member.shape
        shape = has_machine.shape
        self.member = member
        self.has_machine = has_machine
        self.free = has_machine.copy()
        self.free_count = self.free.sum(axis=1).astype(np.int64)
        self.finish = np.full(shape, _FAR, dtype=np.int64)
        self.run_org = np.zeros(shape, dtype=np.int64)
        self.run_start = np.zeros(shape, dtype=np.int64)
        self.started = np.zeros((n, k), dtype=np.int64)
        self.started[~member] = _FAR
        self.done_units = np.zeros((n, k), dtype=np.int64)
        self.done_wstart = np.zeros((n, k), dtype=np.int64)
        self.rcount = np.zeros((n, k), dtype=np.int64)
        self.rsum = np.zeros((n, k), dtype=np.int64)
        self.rsq = np.zeros((n, k), dtype=np.int64)
        cap = 256
        self.log_row = np.empty(cap, dtype=np.int32)
        self.log_start = np.empty(cap, dtype=np.int64)
        self.log_mach = np.empty(cap, dtype=np.int32)
        self.log_job = np.empty(cap, dtype=np.int64)
        self.log_len = 0

    def complete(self, t) -> "np.ndarray | None":
        """Complete every running job with finish ``<= t``: fold it into
        its row's ledgers and free its slot.  Returns the rows of the
        completed slots (``None`` when nothing finished)."""
        # flat slot / cell indices on reshape(-1) views (the arrays are
        # C-contiguous and owned here); two machines of a row can finish
        # the same org's jobs at one t, so cells repeat: np.add.at
        slot = np.flatnonzero(self.finish <= t)
        if not slot.size:
            return None
        fin = self.finish.reshape(-1)
        e = slot // self.finish.shape[1]
        starts = self.run_start.reshape(-1)[slot]
        sizes = fin[slot] - starts
        tri = sizes * starts + sizes * (sizes - 1) // 2
        cell = e * self.started.shape[1] + self.run_org.reshape(-1)[slot]
        np.add.at(self.done_units.reshape(-1), cell, sizes)
        np.add.at(self.done_wstart.reshape(-1), cell, tri)
        np.add.at(self.rcount.reshape(-1), cell, -1)
        np.add.at(self.rsum.reshape(-1), cell, -starts)
        np.add.at(self.rsq.reshape(-1), cell, -(starts * starts))
        fin[slot] = _FAR
        self.free.reshape(-1)[slot] = True
        np.add.at(self.free_count, e, 1)
        return e

    def start(self, rows, sel, t, first, size_flat, mach=None) -> np.ndarray:
        """Start org ``sel[i]``'s FIFO-head job on row ``rows[i]`` at
        ``t``, on machine ``mach[i]`` (default: the row's lowest free
        one), for all ``i`` at once; returns the finish times.
        ``first[i]`` is the flat position of that org's first job in
        ``size_flat``.  ``rows`` are distinct, so the flat cell
        ``row*k + org`` and slot ``row*M + machine`` indices never repeat
        and plain in-place updates are exact."""
        k = self.started.shape[1]
        cell = rows * k + sel
        started = self.started.reshape(-1)
        jidx = started[cell]
        fins = t + size_flat[first + jidx]
        if mach is None:
            mach = self.free[rows].argmax(axis=1)  # first True == lowest id
        slot = rows * self.finish.shape[1] + mach
        self.finish.reshape(-1)[slot] = fins
        self.run_org.reshape(-1)[slot] = sel
        self.run_start.reshape(-1)[slot] = t
        self.free.reshape(-1)[slot] = False
        self.free_count[rows] -= 1
        started[cell] = jidx + 1
        self.rcount.reshape(-1)[cell] += 1
        self.rsum.reshape(-1)[cell] += t
        self.rsq.reshape(-1)[cell] += t * t
        self._log_append(rows, mach, jidx * k + sel, t)
        return fins

    def _log_append(self, rows, mach, job, t) -> None:
        need = self.log_len + len(rows)
        if need > len(self.log_row):
            cap = max(need, 2 * len(self.log_row))
            for name in ("log_row", "log_start", "log_mach", "log_job"):
                old = getattr(self, name)
                new = np.empty(cap, dtype=old.dtype)
                new[: self.log_len] = old[: self.log_len]
                setattr(self, name, new)
        s = slice(self.log_len, need)
        self.log_row[s] = rows
        self.log_start[s] = t
        self.log_mach[s] = mach
        self.log_job[s] = job
        self.log_len = need

    def psis(self, t) -> np.ndarray:
        """Per-(row, org) psi_sp at ``t`` as int64 (the caller certifies
        the arithmetic).  Each cell's numerator is even, so the cellwise
        ``//2`` is exact and row sums are the coalition values."""
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

    def log_flat(self, idx, first) -> np.ndarray:
        """Flat stream positions of the log entries ``idx``, ``first[org]``
        being the flat position of each org's first job."""
        rank, org = np.divmod(self.log_job[idx], self.started.shape[1])
        return first[org] + rank

    def row_entries(self, row: int, jobs, first) -> "list[ScheduledJob]":
        """Row ``row``'s starts in chronological order, each job resolved
        in ``jobs`` through :meth:`log_flat`."""
        idx = np.flatnonzero(self.log_row[: self.log_len] == row)
        return [
            ScheduledJob(start, mach, jobs[flat])
            for start, mach, flat in zip(
                self.log_start[idx].tolist(),
                self.log_mach[idx].tolist(),
                self.log_flat(idx, first).tolist(),
            )
        ]


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
    """

    def __init__(
        self,
        workload: Workload,
        masks: "Iterable[int]",
        horizon: "int | None" = None,
    ) -> None:
        self.workload = workload
        self.horizon = horizon
        self.masks = list(masks)
        self.k = k = workload.n_orgs
        self.n = n = len(self.masks)
        self._row = {m: i for i, m in enumerate(self.masks)}
        # masks stay Python ints, so any k fits: unpack their bytes
        width = (k + 7) // 8
        raw = b"".join(m.to_bytes(width, "little") for m in self.masks)
        member = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(n, width),
            axis=1,
            count=k,
            bitorder="little",
        ).astype(bool)
        # machines: canonical global ids
        owners: list[int] = []
        for org in workload.organizations:
            owners.extend([org.id] * org.machines)
        self.machine_org = np.array(owners, dtype=np.int64)
        self.n_mach = len(owners)
        self.rec = RowRecord(member, member[:, self.machine_org])

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
        self.rel_flat = np.array(
            [j.release for j in self.jobs_flat] + [_FAR], dtype=np.int64
        )
        self.size_flat = np.array(
            [j.size for j in self.jobs_flat] + [1], dtype=np.int64
        )
        #: global per-org released-job counts (shared by every row)
        self.released = np.zeros(k, dtype=np.int64)
        self.t = 0
        self._used = False
        self._derive()

    def _derive(self) -> None:
        """Rebuild every cache from the record, the streams and the
        horizon.  Construction calls it; the hot paths patch the same
        caches incrementally (start, complete, release, submit)."""
        rec = self.rec
        rec.free_count = rec.free.sum(axis=1).astype(np.int64)
        self._next_fin = int(rec.finish.min(initial=_FAR))
        #: organizations some row simulates: only their releases are events
        self._covered = rec.member.any(axis=0)
        self._org_clip = np.maximum(np.diff(self.org_start) - 1, 0)
        # certification inputs (extended by submit)
        self._total_units = int(self.size_flat[:-1].sum())
        self._max_release = int(self.rel_flat[:-1].max(initial=0))
        if self.horizon is not None:
            self._max_release = max(self._max_release, self.horizon)
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # event bookkeeping
    # ------------------------------------------------------------------
    def _refresh_head_rel(self) -> None:
        idx = np.minimum(self.org_start[:-1] + self.released, self.org_start[1:])
        have = self.org_start[:-1] + self.released < self.org_start[1:]
        have &= self._covered
        self._head_rel = np.where(have, self.rel_flat[idx], _FAR)
        self._next_rel = int(self._head_rel.min(initial=_FAR))

    def next_event_time(self) -> "int | None":
        """Next release (of an organization some row simulates) or
        completion in any row -- the union of the per-row engines' next
        events (``None`` when exhausted or at/after the horizon)."""
        t = min(self._next_fin, self._next_rel)
        if t >= _FAR:
            return None
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    # ------------------------------------------------------------------
    # lockstep advancement
    # ------------------------------------------------------------------
    def _complete_upto(self, t: int) -> "np.ndarray | None":
        """Process every completion with finish ``<= t``; returns the row
        indices that completed something (or ``None`` when none did)."""
        if self._next_fin > t:
            return None
        e = self.rec.complete(t)
        self._next_fin = int(self.rec.finish.min(initial=_FAR))
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
        rec = self.rec
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
                touched |= rec.member[:, rel_orgs].any(axis=1)
            rows = np.flatnonzero(touched & (rec.free_count > 0))
            self._fill_fifo(rows, tn)
        self.t = until

    def _fill_fifo(self, rows: np.ndarray, t: int) -> None:
        """Batched greedy-FIFO rounds: start the (earliest head release,
        lowest org) job on every still-capable row until none remains."""
        rec = self.rec
        while rows.size:
            wait = rec.started[rows] < self.released
            cap = (rec.free_count[rows] > 0) & wait.any(axis=1)
            if not cap.all():
                rows = rows[cap]
                if not rows.size:
                    return
                wait = wait[cap]
            idx = self.org_start[:-1] + np.minimum(
                rec.started[rows], self._org_clip
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
        wcount = self.released - self.rec.started[rows]  # non-members << 0
        wait = wcount > 0
        left = np.minimum(
            self.rec.free_count[rows], wcount.sum(axis=1, where=wait)
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

    def _start_batch(self, rows, sel, t: int, mach=None) -> None:
        """:meth:`RowRecord.start` on this kernel's streams, lowering the
        cached next finish."""
        fins = self.rec.start(
            rows, sel, t, self.org_start[sel], self.size_flat, mach
        )
        nf = int(fins.min())
        if nf < self._next_fin:
            self._next_fin = nf

    # ------------------------------------------------------------------
    # single-row actions (the per-engine API surface)
    # ------------------------------------------------------------------
    def start_row(
        self, row: int, org: int, machine: "int | None" = None
    ) -> ScheduledJob:
        """Start ``org``'s FIFO-head job on one row (explicit or lowest-id
        free machine) -- the kernel's ``engine.start_next``."""
        self._used = True
        rec, t = self.rec, self.t
        if not (
            0 <= org < self.k
            and rec.member[row, org]
            and rec.started[row, org] < self.released[org]
        ):
            raise ValueError(f"org {org} has no waiting job at t={t}")
        if rec.free_count[row] <= 0:
            raise ValueError(f"no free machine at t={t}")
        if machine is None:
            machine = int(rec.free[row].argmax())
        elif not (0 <= machine < self.n_mach and rec.free[row, machine]):
            raise ValueError(f"machine {machine} is not free at t={t}")
        job = self.jobs_flat[int(self.org_start[org] + rec.started[row, org])]
        self._start_batch(
            np.array([row]), np.array([org]), t, np.array([machine])
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
        self._org_clip[u] = self.org_start[u + 1] - self.org_start[u] - 1
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------
    def _query_safe(self, t: int) -> bool:
        """Certify one int64 evaluation at ``t`` from the construction-time
        component bounds (every ledger scalar is bounded by the certified
        ``U``/``T``/``M`` quantities)."""
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

    def values_i64(self, t: int) -> "np.ndarray | None":
        """All row values at ``t`` (``t >= self.t``) as int64, or ``None``
        when the per-query overflow guard cannot certify the evaluation."""
        if not self._query_safe(t):
            return None
        return self.rec.psis(t).sum(axis=1)

    def values_exact(self, t: int) -> "list[int]":
        """All row values at ``t >= self.t`` in exact Python ints (the
        overflow fallback; the int64 ledgers are exact by certification)."""
        return [sum(self.row_psis(row, t)) for row in range(self.n)]

    def values_retro(self, t: int) -> "np.ndarray":
        """All row values at a *past* time ``t < self.t``, re-derived from
        the chronological start log (int64-safe: ``t`` precedes certified
        event times)."""
        rec = self.rec
        n = rec.log_len
        out = np.zeros(self.n, dtype=np.int64)
        if not n:
            return out
        starts = rec.log_start[:n]
        sizes = self.size_flat[rec.log_flat(slice(n), self.org_start)]
        c = np.clip(t - starts, 0, sizes)
        vals = c * (t - starts) - c * (c - 1) // 2
        np.add.at(out, rec.log_row[:n], vals)
        return out

    # ------------------------------------------------------------------
    # per-row exact queries (view/materialization substrate)
    # ------------------------------------------------------------------
    def row_entries(self, row: int) -> "list[ScheduledJob]":
        """The row's start log in chronological order (exact objects)."""
        return self.rec.row_entries(row, self.jobs_flat, self.org_start)

    def row_psis(self, row: int, t: "int | None" = None) -> "list[int]":
        """One row's per-org psi_sp at ``t`` in exact Python ints (matches
        ``ClusterEngine.psis`` for past, present and future ``t``)."""
        t = self.t if t is None else t
        if t < self.t:
            out = [0] * self.k
            for e in self.row_entries(row):
                out[e.job.org] += _partial_psi(e.start, e.job.size, t)
            return out
        rec = self.rec
        du = rec.done_units[row].tolist()
        dw = rec.done_wstart[row].tolist()
        out = [u * t - w for u, w in zip(du, dw)]
        for m in np.flatnonzero(rec.finish[row] < _FAR):
            s = int(rec.run_start[row, m])
            size = int(rec.finish[row, m]) - s
            out[int(rec.run_org[row, m])] += _partial_psi(s, size, t)
        return out

    # ------------------------------------------------------------------
    # materialization (the escape hatch back to real engines)
    # ------------------------------------------------------------------
    def materialize_row(self, row: int) -> ClusterEngine:
        """Reconstruct this row as a real, bit-identical
        :class:`~repro.core.engine.ClusterEngine` (same schedule, ledgers,
        stream position, free set and pending queues)."""
        rec = self.rec
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
            for m in np.flatnonzero(rec.has_machine[row])
        }
        eng.n_machines = len(eng.machine_owner)
        eng._free = sorted(int(m) for m in np.flatnonzero(rec.free[row]))
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
            lo = int(self.org_start[u] + rec.started[row, u])
            hi = int(self.org_start[u] + self.released[u])
            eng._pending[u] = deque(self.jobs_flat[lo:hi])
        eng._n_waiting = int(sum(len(q) for q in eng._pending.values()))
        eng.t = self.t
        running_m = np.flatnonzero(rec.finish[row] < _FAR)
        eng._busy = [
            (int(rec.finish[row, m]), int(m)) for m in running_m
        ]
        heapq.heapify(eng._busy)
        entries = self.row_entries(row)
        last = {e.machine: e for e in entries}  # a machine's latest start
        eng._running = {m: last[m] for m in running_m.tolist()}
        eng._retiring = set()
        eng._retired = set()
        eng._done_units = rec.done_units[row].tolist()
        eng._done_wstart = rec.done_wstart[row].tolist()
        # by-machine-owner aggregates over *completed* jobs, from the log
        eng._done_units_mach = [0] * self.k
        eng._done_wstart_mach = [0] * self.k
        for e in entries:
            if e.end <= self.t:
                p = e.job.size
                owner = int(self.machine_org[e.machine])
                eng._done_units_mach[owner] += p
                eng._done_wstart_mach[owner] += p * e.start + p * (p - 1) // 2
        eng._tot_units = int(rec.done_units[row].sum())
        eng._tot_wstart = int(rec.done_wstart[row].sum())
        eng._run_start_sum = int(rec.rsum[row].sum())
        eng._run_start_sq = int(rec.rsq[row].sum())
        eng._log = entries
        eng._completed = sorted(
            (e for e in entries if e.end <= self.t),
            key=lambda e: (e.end, e.machine),
        )
        return eng


class KernelEngineView:
    """Read-only view of one kernel row through the ``ClusterEngine``
    members the schedulers and the service read (DESIGN.md §8.5).

    A caller that mutates an engine materializes the fleet first; a view
    read after the fleet has left the kernel raises ``RuntimeError``
    (ask the fleet for the engine again instead).
    """

    __slots__ = ("_fleet", "_mask")

    def __init__(self, fleet, mask: int):
        self._fleet = fleet
        self._mask = mask

    def _kr(self):
        """(kernel, row) of the live kernel (built lazily when stale)."""
        kern = self._fleet.kernel
        if kern is None:
            raise RuntimeError(
                f"stale view of mask {self._mask:#b}: the fleet has left the "
                f"kernel ({self._fleet.materialize_reason})"
            )
        return kern, kern._row[self._mask]

    @property
    def t(self) -> int:
        return self._kr()[0].t

    @property
    def members(self) -> "tuple[int, ...]":
        self._kr()  # a stale view fails here too
        return tuple(iter_members(self._mask))

    @property
    def free_count(self) -> int:
        kern, row = self._kr()
        return int(kern.rec.free_count[row])

    def has_waiting(self) -> bool:
        kern, row = self._kr()
        return bool((kern.rec.started[row] < kern.released).any())

    def waiting_count(self, org: int) -> int:
        kern, row = self._kr()
        if not kern.rec.member[row, org]:
            raise KeyError(org)
        return int(kern.released[org] - kern.rec.started[row, org])

    def waiting_orgs(self) -> "list[int]":
        kern, row = self._kr()
        return np.flatnonzero(kern.rec.started[row] < kern.released).tolist()

    def running_counts(self) -> "list[int]":
        kern, row = self._kr()
        return kern.rec.rcount[row].tolist()

    def psis(self, t: "int | None" = None) -> "list[int]":
        kern, row = self._kr()
        return kern.row_psis(row, t)

    @property
    def started_count(self) -> int:
        kern, row = self._kr()  # counted, not built from the start log
        return int(kern.rec.started[row][kern.rec.member[row]].sum())

    @property
    def start_log(self) -> "list[ScheduledJob]":
        kern, row = self._kr()
        return kern.row_entries(row)

    def schedule(self) -> Schedule:
        return Schedule(self.start_log)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelEngineView(mask={self._mask:#b})"
