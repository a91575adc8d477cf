"""Batched structure-of-arrays coalition simulation kernel (DESIGN §8, §10).

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
state and the kernel's reads of it.

The rows belong to ``B`` independent problem instances: a fleet's
kernel has one, the Table-1 sweep stacks many (:meth:`FleetKernel.batch`).
Instance ``i`` owns the rows from ``row0[i]`` (``row_inst`` maps back),
and its org and machine columns are its own ids, padded to the widest
instance, so no arithmetic mixes instances.  An instance's rows share its
job streams: one segment ``seg_start[i,u]`` of the flat stream arrays and
one release pointer per org (row ``e`` waits on the org-``u`` jobs in
``[started[e,u], released[row_inst[e],u])``).  :meth:`FleetKernel._derive`
rebuilds the caches from the record, the streams and the horizons.

Lockstep invariant: an instance's rows share one clock.
:meth:`FleetKernel.sweep` moves every instance to its *own* next event,
:meth:`FleetKernel.advance` every clock to one time; completions and
releases at or before each clock are then processed for every row in a
handful of scatter operations, and greedy fills run as *batched rounds*
-- each round starts one job per still-capable engine via a masked row
``argmax``/``argmin``, exactly reproducing the per-engine selection loop
(first-occurrence ``argmax`` is the lowest-id tie-break).  Only engines
**touched** by an event (a completion, or a member organization's
release) are filled, which is sound by the greedy invariant: an untouched
engine has no new free-machine/waiting-job pair.  Two cached scalars, the
earliest running finish and the earliest pending release of an
organization some row simulates, give :meth:`FleetKernel.next_event_time`:
the owning fleet's next decision time, recorded nowhere else.  The
instance count shows in one place only, :meth:`FleetKernel._clock`.

Exactness: the kernel only engages when :func:`kernel_certified` proves from
the workload that *no ledger scalar nor any query at an event time can
overflow int64* (conservative bound over the total work and the latest
possible finish time), per instance: one instance's totals never weigh
on another's.  Far-future value queries are still guarded per query
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
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Iterable, Sequence

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
    "instance_bound",
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

#: :meth:`FleetKernel._clock`'s index for every row, as a column
_EVERY_ROW = np.s_[:, None]


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


def instance_bound(workload: Workload, horizon: "int | None") -> int:
    """The worst-case magnitude of any ledger scalar or event-time query
    on ``workload`` run to ``horizon``: :func:`_overflow_bound` over its
    totals."""
    total = sum(j.size for j in workload.jobs)
    rel = max((j.release for j in workload.jobs), default=0)
    if horizon is not None:
        rel = max(rel, horizon)
    return _overflow_bound(total, rel, workload.n_machines)


def kernel_certified(workload: Workload, horizon: "int | None") -> bool:
    """True when int64 arithmetic provably cannot overflow for any event-time
    update or query on ``workload`` (the kernel precondition)."""
    return instance_bound(workload, horizon) < _QUERY_CAP


class RowRecord:
    """The per-row simulation state of the coalition kernel, and every
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
    for :meth:`start`): numpy broadcasting serves both.
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

    def log_flat(self, idx, seg_start, row_inst) -> np.ndarray:
        """Flat stream positions of the log entries ``idx``:
        ``seg_start[i, org]`` is the flat position of the first job of
        instance ``i``'s org, ``row_inst[row]`` a row's instance."""
        rank, org = np.divmod(self.log_job[idx], self.started.shape[1])
        return seg_start[row_inst[self.log_row[idx]], org] + rank

    def row_entries(
        self, row: int, jobs, seg_start, row_inst
    ) -> "list[ScheduledJob]":
        """Row ``row``'s starts in chronological order, each job resolved
        in ``jobs`` through :meth:`log_flat`."""
        idx = np.flatnonzero(self.log_row[: self.log_len] == row)
        return [
            ScheduledJob(start, mach, jobs[flat])
            for start, mach, flat in zip(
                self.log_start[idx].tolist(),
                self.log_mach[idx].tolist(),
                self.log_flat(idx, seg_start, row_inst).tolist(),
            )
        ]


class FleetKernel:
    """Structure-of-arrays lockstep simulation of the coalition engines of
    one problem instance -- a fleet's, over a frozen (but
    online-extensible) workload -- or of many stacked ones
    (:meth:`batch`).

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

    The event loop and :meth:`row_entries` serve any number of instances;
    the rest of the per-engine API (:meth:`start_row`, :meth:`submit`, the
    ``values_*`` queries, :meth:`row_psis`, :meth:`materialize_row`,
    ``_row``, the engine views) is a fleet's and reads instance 0.
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
        self._row = {m: i for i, m in enumerate(self.masks)}
        self._build([(workload, self.masks, horizon)])

    @classmethod
    def batch(
        cls, items: "Sequence[tuple[Workload, Iterable[int], int | None]]"
    ) -> "FleetKernel":
        """One kernel over many independent instances, one ``(workload,
        masks, horizon)`` item each (at least one mask per item), their
        rows stacked in item order.  Raises :class:`KernelUnsafe` when an
        instance fails its own int64 certification (callers pre-filter
        with :func:`instance_bound`)."""
        kern = cls.__new__(cls)
        kern._build([(wl, list(masks), h) for wl, masks, h in items])
        return kern

    def _build(self, items) -> None:
        self.B = B = len(items)
        self.k = k = max(wl.n_orgs for wl, _, _ in items)
        m_max = max(wl.n_machines for wl, _, _ in items)
        counts = [len(masks) for _, masks, _ in items]
        self.n = n = sum(counts)
        self.row0 = np.zeros(B, dtype=np.int64)
        np.cumsum(counts[:-1], out=self.row0[1:])
        self.row_inst = np.repeat(np.arange(B, dtype=np.int64), counts)
        # masks stay Python ints, so any k fits: unpack their bytes (an
        # instance's bits stop at its own k: wider columns are padding)
        width = (k + 7) // 8
        raw = b"".join(
            m.to_bytes(width, "little") for _, masks, _ in items for m in masks
        )
        member = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(n, width),
            axis=1,
            count=k,
            bitorder="little",
        ).astype(bool)
        # machines: each instance's canonical ids; -1 owns a padding slot,
        # which no row has (never free, finish _FAR)
        self.machine_org = np.full((B, m_max), -1, dtype=np.int64)
        has_machine = np.zeros((n, m_max), dtype=bool)
        for i, (wl, _, _) in enumerate(items):
            owners = [o.id for o in wl.organizations for _ in range(o.machines)]
            self.machine_org[i, : len(owners)] = owners
            rows = slice(self.row0[i], self.row0[i] + counts[i])
            has_machine[rows, : len(owners)] = member[rows][:, owners]
        self.n_mach = [wl.n_machines for wl, _, _ in items]
        self.rec = RowRecord(member, has_machine)

        # --- job streams: one canonical segment per (instance, org) --------
        self.jobs_flat: list[Job] = []
        seg_len = []
        for wl, _, _ in items:
            per_org: list[list[Job]] = [[] for _ in range(k)]
            for j in sorted(wl.jobs):
                per_org[j.org].append(j)
            seg_len.append([len(jobs) for jobs in per_org])
            self.jobs_flat.extend(j for jobs in per_org for j in jobs)
        self.seg_len = np.array(seg_len, dtype=np.int64)
        self.seg_start = np.cumsum(self.seg_len).reshape(B, k) - self.seg_len
        # one trailing sentinel pads the flat arrays so clipped gathers of an
        # exhausted / empty / padding segment stay in bounds (never selected)
        self.rel_flat = np.array(
            [j.release for j in self.jobs_flat] + [_FAR], dtype=np.int64
        )
        self.size_flat = np.array(
            [j.size for j in self.jobs_flat] + [1], dtype=np.int64
        )
        #: per-(instance, org) released-job counts, shared by its rows
        self.released = np.zeros((B, k), dtype=np.int64)
        self.horizons = np.array(
            [_FAR if h is None else h for _, _, h in items], dtype=np.int64
        )
        self.clocks = np.zeros(B, dtype=np.int64)
        self._first_horizon = int(self.horizons.min())
        self._used = False
        self._derive()
        for i, cert in enumerate(
            zip(self._total_units, self._max_release, self.n_mach)
        ):
            if _overflow_bound(*cert) >= _QUERY_CAP:
                raise KernelUnsafe(f"instance {i} fails int64 certification")

    def _derive(self) -> None:
        """Rebuild every cache from the record, the streams and the
        horizons.  Construction calls it; the hot paths patch the same
        caches incrementally (start, complete, release, submit)."""
        rec = self.rec
        rec.free_count = rec.free.sum(axis=1).astype(np.int64)
        #: organizations some row of the instance simulates: only their
        #: releases are events
        self._covered = np.zeros((self.B, self.k), dtype=bool)
        np.logical_or.at(self._covered, self.row_inst, rec.member)
        self._org_clip = np.maximum(self.seg_len - 1, 0)
        # certification inputs per instance, as Python ints (extended by
        # submit); an instance's segments are contiguous
        spans = zip(
            self.seg_start[:, 0].tolist(),
            (self.seg_start[:, -1] + self.seg_len[:, -1]).tolist(),
            self.horizons.tolist(),
        )
        self._total_units, self._max_release = [], []
        for lo, hi, h in spans:
            self._total_units.append(int(self.size_flat[lo:hi].sum()))
            rel = int(self.rel_flat[lo:hi].max(initial=0))
            self._max_release.append(max(rel, h if h < _FAR else 0))
        self._next_fin = int(rec.finish.min(initial=_FAR))
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # event bookkeeping
    # ------------------------------------------------------------------
    def _refresh_head_rel(self) -> None:
        idx = self.seg_start + np.minimum(self.released, self._org_clip)
        have = (self.released < self.seg_len) & self._covered
        self._head_rel = np.where(have, self.rel_flat[idx], _FAR)
        self._next_rel = int(self._head_rel.min(initial=_FAR))

    def _next_events(self) -> np.ndarray:
        """Each instance's next event: its earliest running finish or
        pending release (of an organization some row simulates), ``_FAR``
        when there is none before its horizon."""
        finish = self.rec.finish
        if finish.size:  # an instance's slots are one flat block
            slot0 = self.row0 * finish.shape[1]
            nt = np.minimum.reduceat(finish.reshape(-1), slot0)
        else:
            nt = np.full(self.B, _FAR, dtype=np.int64)
        np.minimum(nt, self._head_rel.min(axis=1, initial=_FAR), out=nt)
        nt[nt >= self.horizons] = _FAR
        return nt

    def next_event_time(self) -> "int | None":
        """The earliest next event of any instance before its horizon -- on
        a fleet, the union of the per-row engines' next events (``None``
        when exhausted or at/after the horizon).  Two cached scalars, the
        earliest running finish and pending release over every instance,
        answer it until some instance reaches its horizon."""
        t = min(self._next_fin, self._next_rel)
        if t >= self._first_horizon:
            t = min(self._next_events().tolist())
        return None if t >= _FAR else t

    @property
    def t(self) -> int:
        """Instance 0's clock: a fleet's one clock."""
        return int(self.clocks[0])

    def _clock(self, rows):
        """The clock operand of the record's calls on ``rows`` (an index
        array, or ``_EVERY_ROW`` for a column): each row's instance clock,
        but one Python int on a one-instance kernel -- the one place the
        instance count shows.  A scalar keeps numpy on the fast loops the
        serving path lives in (``RowRecord.psis``, 255 rows, k=8, 2-core
        Xeon: 11 µs, against 21 µs with a column)."""
        if self.B == 1:
            return self.t
        return self.clocks[self.row_inst[rows]]

    # ------------------------------------------------------------------
    # lockstep advancement
    # ------------------------------------------------------------------
    def sweep(self, until: int = _FAR - 1):
        """Move every instance whose next event falls before its horizon
        and at or before ``until`` to that event -- each to its own, the
        jagged lockstep -- and process its completions and releases there;
        returns :meth:`_advance`'s pair, or ``None`` when none moved.
        Iterated, this is each instance's own ``min(next completion, next
        release)`` event sequence.  An instance whose next event lies at or
        past its horizon stays where it is: completions there cannot change
        the start log, hence not the schedule."""
        nt = self._next_events()
        live = nt <= until
        if not live.any():
            return None
        self._used = True
        self.clocks = np.where(live, nt, self.clocks)
        return self._advance(int(self.clocks.max()))

    def advance(self, t: int) -> None:
        """Move every clock to ``t`` and process all completions and
        releases at times ``<= t`` for every row at once (the no-starts
        lockstep of ``CoalitionFleet.advance_all``; starts between events
        are the caller's job)."""
        if t < self.t:
            raise ValueError(f"cannot advance backwards ({self.t} -> {t})")
        self._used = True
        self.clocks[:] = t
        self._advance(t)

    def _advance(self, until: int):
        """Process every completion and release at or before each row's
        instance clock (``until``: the latest clock).  Returns the rows that
        completed a job and the ``(B, k)`` mask of streams due a release,
        each ``None`` when there was nothing due."""
        done = hit = None
        if self._next_fin <= until:
            done = self.rec.complete(self._clock(_EVERY_ROW))
            self._next_fin = int(self.rec.finish.min(initial=_FAR))
        if self._next_rel <= until:
            hit = self._release_upto()
        return done, hit

    def _release_upto(self) -> np.ndarray:
        """Advance every (instance, org) release pointer past the jobs
        released at or before the instance's clock (each pointer moves once
        per distinct release time of its stream, so the loop amortizes)."""
        hit = self._head_rel <= self.clocks[:, None]
        for cell in np.flatnonzero(hit).tolist():
            i, u = divmod(cell, self.k)
            lo = int(self.seg_start[i, u] + self.released[i, u])
            hi = int(self.seg_start[i, u] + self.seg_len[i, u])
            t = int(self.clocks[i])
            self.released[i, u] += int(
                np.searchsorted(self.rel_flat[lo:hi], t, "right")
            )
        self._refresh_head_rel()
        return hit

    def drive_fifo(self, until: int) -> None:
        """Drive every row's own greedy FIFO loop to ``until`` (events at
        ``until`` included) over its instance's events, then move every
        clock to ``until`` -- the batched equivalent of
        ``engine.drive(fifo_select, until)`` per engine."""
        rec = self.rec
        while (events := self.sweep(until)) is not None:
            done, hit = events
            touched = np.zeros(self.n, dtype=bool)
            if done is not None:
                touched[done] = True
            if hit is not None:
                cells = hit.take(self.row_inst, 0)
                touched |= (rec.member & cells).any(axis=1)
            self._fill_fifo(np.flatnonzero(touched & (rec.free_count > 0)))
        self.advance(until)  # completions/releases only past the horizon

    def _fill_fifo(self, rows: np.ndarray) -> None:
        """Batched greedy-FIFO rounds: start the (earliest head release,
        lowest org) job on every still-capable row until none remains."""
        rec = self.rec
        while rows.size:
            inst = self.row_inst[rows]
            wait = rec.started[rows] < self.released.take(inst, 0)
            cap = (rec.free_count[rows] > 0) & wait.any(axis=1)
            if not cap.all():
                rows, inst, wait = rows[cap], inst[cap], wait[cap]
                if not rows.size:
                    return
            idx = self.seg_start.take(inst, 0) + np.minimum(
                rec.started[rows], self._org_clip.take(inst, 0)
            )
            hr = np.where(wait, self.rel_flat[idx], _FAR)
            # first min == lowest org id tie-break
            self._start_batch(rows, hr.argmin(axis=1))

    def fill_rows(self, rows: np.ndarray, keys: "np.ndarray | None") -> None:
        """Batched ``fill_capacity`` at each row's instance clock:
        repeatedly start the FIFO-head job of the waiting organization
        maximizing ``keys[row, org]`` (ties: lowest org id) on every row
        while it has a free machine and waiting work.

        ``keys`` is aligned with ``rows`` (shape ``(len(rows), k)``) and
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
        # non-member and padding cells << 0; ``take`` gathers an
        # instance row per kernel row ~4x faster than fancy indexing
        wcount = (
            self.released.take(self.row_inst[rows], 0) - self.rec.started[rows]
        )
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
            self._start_batch(rows, sel)
            left -= 1
            if not left.any():
                return  # that was every row's last start
            wcount[np.arange(len(rows)), sel] -= 1
            wait = wcount > 0

    def _start_batch(self, rows, sel, mach=None) -> None:
        """:meth:`RowRecord.start` on the rows' instance streams and
        clocks, lowering the cached earliest finish."""
        first = self.seg_start[self.row_inst[rows], sel]
        fins = self.rec.start(
            rows, sel, self._clock(rows), first, self.size_flat, mach
        )
        nf = int(fins.min())
        if nf < self._next_fin:
            self._next_fin = nf

    def psis(self) -> np.ndarray:
        """Per-(row, org) psi_sp at each row's instance clock as int64
        (:meth:`RowRecord.psis`; the caller certifies the arithmetic)."""
        return self.rec.psis(self._clock(_EVERY_ROW))

    # ------------------------------------------------------------------
    # single-row actions (a fleet's per-engine API surface)
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
            and rec.started[row, org] < self.released[0, org]
        ):
            raise ValueError(f"org {org} has no waiting job at t={t}")
        if rec.free_count[row] <= 0:
            raise ValueError(f"no free machine at t={t}")
        if machine is None:
            machine = int(rec.free[row].argmax())
        elif not (0 <= machine < self.n_mach[0] and rec.free[row, machine]):
            raise ValueError(f"machine {machine} is not free at t={t}")
        pos = int(self.seg_start[0, org] + rec.started[row, org])
        self._start_batch(
            np.array([row]), np.array([org]), np.array([machine])
        )
        return ScheduledJob(t, machine, self.jobs_flat[pos])

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
        total = self._total_units[0] + job.size
        rel = max(self._max_release[0], job.release)
        if _overflow_bound(total, rel, self.n_mach[0]) >= _QUERY_CAP:
            raise KernelUnsafe("job pushes the int64 certification bound")
        self._used = True
        u = job.org
        lo = int(self.seg_start[0, u] + self.released[0, u])
        hi = int(self.seg_start[0, u] + self.seg_len[0, u])
        pos = bisect_right(self.jobs_flat, job, lo, hi)
        self.jobs_flat.insert(pos, job)
        # manual splice: ~5x cheaper than np.insert's generic machinery on
        # this per-op hot path (online ingest runs it once per job)
        self.rel_flat = self._splice_one(self.rel_flat, pos, job.release)
        self.size_flat = self._splice_one(self.size_flat, pos, job.size)
        self.seg_start[0, u + 1 :] += 1
        self.seg_len[0, u] += 1
        self._org_clip[0, u] = self.seg_len[0, u] - 1
        self._total_units[0] = total
        self._max_release[0] = rel
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------
    def _query_safe(self, times: "list[int]") -> bool:
        """Certify one int64 evaluation of each instance at its time in
        ``times`` from the certified component bounds (every ledger scalar
        is bounded by the certified ``U``/``T``/``M`` quantities).  Python
        ints throughout: a far-future query time need not fit int64."""
        for t, u, rel, m in zip(
            times, self._total_units, self._max_release, self.n_mach
        ):
            T = rel + u + 1
            if t < 0:
                return False
            if t <= T:  # certified once at construction / submit
                continue
            tt = t * t + t
            m = max(m, 1)
            if tt >= _QUERY_CAP or (
                u * t + 2 * u * T + m * tt + m * T * (2 * t + 1) + m * T * T
                >= _QUERY_CAP
            ):
                return False
        return True

    def values_i64(self, t: int) -> "np.ndarray | None":
        """All row values at ``t`` (``t >= self.t``) as int64, or ``None``
        when the per-query overflow guard cannot certify the evaluation."""
        if not self._query_safe([t]):
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
        flat = rec.log_flat(slice(n), self.seg_start, self.row_inst)
        sizes = self.size_flat[flat]
        c = np.clip(t - starts, 0, sizes)
        vals = c * (t - starts) - c * (c - 1) // 2
        np.add.at(out, rec.log_row[:n], vals)
        return out

    # ------------------------------------------------------------------
    # per-row exact queries (view/materialization substrate)
    # ------------------------------------------------------------------
    def row_entries(self, row: int) -> "list[ScheduledJob]":
        """The row's start log in chronological order (exact objects)."""
        return self.rec.row_entries(
            row, self.jobs_flat, self.seg_start, self.row_inst
        )

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
        released, first = self.released[0], self.seg_start[0]
        mask = self.masks[row]
        members = tuple(sorted(iter_members(mask)))
        eng = object.__new__(ClusterEngine)
        eng.workload = self.workload
        eng.n_orgs = self.k
        eng.members = members
        eng.horizon = self.horizon
        member_set = set(members)
        eng.machine_owner = {
            int(m): int(self.machine_org[0, m])
            for m in np.flatnonzero(rec.has_machine[row])
        }
        eng.n_machines = len(eng.machine_owner)
        eng._free = sorted(int(m) for m in np.flatnonzero(rec.free[row]))
        eng._free_set = set(eng._free)
        heapq.heapify(eng._free)
        # shared canonical stream, restricted to members (includes submits)
        stream = sorted(j for j in self.jobs_flat if j.org in member_set)
        eng._stream = stream
        eng._stream_pos = int(sum(released[u] for u in members))
        eng._pending = {}
        for u in members:
            lo = int(first[u] + rec.started[row, u])
            hi = int(first[u] + released[u])
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
            if e.end <= eng.t:
                p = e.job.size
                owner = int(self.machine_org[0, e.machine])
                eng._done_units_mach[owner] += p
                eng._done_wstart_mach[owner] += p * e.start + p * (p - 1) // 2
        eng._tot_units = int(rec.done_units[row].sum())
        eng._tot_wstart = int(rec.done_wstart[row].sum())
        eng._run_start_sum = int(rec.rsum[row].sum())
        eng._run_start_sq = int(rec.rsq[row].sum())
        eng._log = entries
        eng._completed = sorted(
            (e for e in entries if e.end <= eng.t),
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
        return bool((kern.rec.started[row] < kern.released[0]).any())

    def waiting_count(self, org: int) -> int:
        kern, row = self._kr()
        if not kern.rec.member[row, org]:
            raise KeyError(org)
        return int(kern.released[0, org] - kern.rec.started[row, org])

    def waiting_orgs(self) -> "list[int]":
        kern, row = self._kr()
        return np.flatnonzero(kern.rec.started[row] < kern.released[0]).tolist()

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

    def __repr__(self) -> str:
        return f"KernelEngineView(mask={self._mask:#b})"
