"""Cross-instance structure-of-arrays simulation kernel (DESIGN.md §10).

:class:`~repro.core.kernel.FleetKernel` batches the coalition engines of
*one* problem instance into 2-D int64 arrays sharing a single clock.  The
experiment pipeline runs *many independent instances* of the same shape
(every repeat of a scenario sweep), and per-instance kernels still pay the
full numpy dispatch count once per instance per event.
:class:`MultiInstanceKernel` applies the same trick one level up: the
per-coalition rows of many instances are stacked into one set of arrays and
advanced in **jagged lockstep** -- every sweep moves every live instance to
its *own* next event time, so one masked argmin/argmax pass serves N
instances and the sweep count is ``max_i E_i`` instead of ``sum_i E_i``.

Layout (local coordinates, padded to the batch maxima):

* rows are grouped per instance (``row0[i] .. row0[i+1]``), ``row_inst``
  maps each row back to its instance;
* organization columns are the instance's *own* org ids ``0..k_i-1``
  (padding columns are non-member: ``started`` holds the ``_FAR`` sentinel
  so ``started < released`` stays the waiting predicate);
* machine columns are the instance's *own* canonical machine ids
  ``0..M_i-1`` (padding columns are absent: never free, finish ``_FAR``),
  so logged starts translate directly into each instance's schedule;
* job streams concatenate per-(instance, org) segments of the canonical
  per-org arrays, addressed by ``seg_start``/``seg_len`` -- the
  two-dimensional form of ``FleetKernel.org_start``.

Because organization and machine columns are instance-local, **no
arithmetic ever mixes rows of different instances**: completions scatter by
(row, local org), releases advance per-(instance, org) pointers, and value
queries evaluate each row at its own instance clock (``t_inst[row_inst]``).
Certification is therefore *per instance*: instance ``i`` is int64-safe iff
``_overflow_bound(U_i, T_i, M_i)`` clears the cap with its **own**
workload's totals -- one overflowing instance is simply not admitted to the
batch (the caller runs it on the stock per-instance path) and cannot evict
or perturb its siblings.  Admitted instances never trip a runtime guard:
every event time is bounded by the certified ``T_i``.

Bit-identity contract: for each admitted instance, the logged schedule is
identical to the one produced by the per-instance engines/kernel path --
the per-row rounds of :meth:`fill_rows` reproduce the per-engine selection
loop exactly (first-occurrence argmax = lowest org id, first free machine =
lowest machine id), and the jagged event iteration reproduces each
instance's own ``min(next completion, next release)`` event sequence.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .kernel import _FAR, _I64_MIN, _QUERY_CAP, KernelUnsafe, _overflow_bound
from .job import Job
from .schedule import ScheduledJob
from .workload import Workload

__all__ = ["MultiInstanceKernel", "instance_bound"]


def instance_bound(workload: Workload, horizon: "int | None") -> int:
    """The instance's certified worst-case ledger/query magnitude (the
    per-instance form of :func:`~repro.core.kernel.kernel_certified`)."""
    total = sum(j.size for j in workload.jobs)
    rel = max((j.release for j in workload.jobs), default=0)
    if horizon is not None:
        rel = max(rel, horizon)
    return _overflow_bound(total, rel, workload.n_machines)


class MultiInstanceKernel:
    """Jagged-lockstep SoA simulation of many independent instances.

    Parameters
    ----------
    items:
        One ``(workload, masks, horizon)`` triple per instance: the
        instance's workload, its coalition bitmasks in row order, and its
        stop time (``None`` = run to exhaustion).  Every instance must be
        individually int64-certified (:class:`KernelUnsafe` otherwise --
        callers are expected to pre-filter with :func:`instance_bound`).
    """

    def __init__(
        self,
        items: Sequence["tuple[Workload, Iterable[int], int | None]"],
    ) -> None:
        items = [(wl, list(masks), horizon) for wl, masks, horizon in items]
        self.B = B = len(items)
        self.workloads = [wl for wl, _, _ in items]
        self.bounds = [
            instance_bound(wl, horizon) for wl, _, horizon in items
        ]
        for i, bound in enumerate(self.bounds):
            if bound >= _QUERY_CAP:
                raise KernelUnsafe(
                    f"instance {i} fails int64 certification (bound {bound})"
                )
        self.k_max = k_max = max((wl.n_orgs for wl, _, _ in items), default=0)
        self.n_mach_max = m_max = max(
            (wl.n_machines for wl, _, _ in items), default=0
        )
        counts = [len(masks) for _, masks, _ in items]
        self.n = n = int(sum(counts))
        self.row0 = np.zeros(B, dtype=np.int64)
        np.cumsum(counts[:-1], out=self.row0[1:])
        self.row_inst = np.repeat(np.arange(B, dtype=np.int64), counts)
        self.horizon = np.array(
            [_FAR if h is None else int(h) for _, _, h in items],
            dtype=np.int64,
        )

        # --- membership (instance-local org columns) -----------------------
        self.member = np.zeros((n, k_max), dtype=bool)
        for i, (wl, masks, _) in enumerate(items):
            block = np.array(masks, dtype=np.int64)[:, None]
            bits = (block >> np.arange(wl.n_orgs, dtype=np.int64)) & 1
            self.member[
                self.row0[i] : self.row0[i] + len(masks), : wl.n_orgs
            ] = bits.astype(bool)

        # --- machines (instance-local canonical ids) -----------------------
        self.has_machine = np.zeros((n, m_max), dtype=bool)
        for i, (wl, masks, _) in enumerate(items):
            owners: list[int] = []
            for org in wl.organizations:
                owners.extend([org.id] * org.machines)
            if owners:
                lo = self.row0[i]
                self.has_machine[lo : lo + len(masks), : len(owners)] = (
                    self.member[lo : lo + len(masks)][
                        :, np.array(owners, dtype=np.int64)
                    ]
                )
        self.machine_org = np.zeros((B, m_max), dtype=np.int64)
        for i, (wl, _, _) in enumerate(items):
            col = 0
            for org in wl.organizations:
                for _ in range(org.machines):
                    self.machine_org[i, col] = org.id
                    col += 1
        self.free = self.has_machine.copy()
        self.free_count = self.free.sum(axis=1).astype(np.int64)
        self.finish = np.full((n, m_max), _FAR, dtype=np.int64)
        self.run_org = np.zeros((n, m_max), dtype=np.int64)
        self.run_start = np.zeros((n, m_max), dtype=np.int64)

        # --- job streams: per-(instance, org) segments ---------------------
        self.jobs_flat: list[Job] = []
        rel_parts: list[int] = []
        size_parts: list[int] = []
        self.seg_start = np.zeros((B, k_max), dtype=np.int64)
        self.seg_len = np.zeros((B, k_max), dtype=np.int64)
        pos = 0
        for i, (wl, _, _) in enumerate(items):
            per_org: list[list[Job]] = [[] for _ in range(wl.n_orgs)]
            for j in sorted(wl.jobs):
                per_org[j.org].append(j)
            for u in range(k_max):
                self.seg_start[i, u] = pos
                if u < wl.n_orgs:
                    jobs = per_org[u]
                    self.seg_len[i, u] = len(jobs)
                    self.jobs_flat.extend(jobs)
                    rel_parts.extend(j.release for j in jobs)
                    size_parts.extend(j.size for j in jobs)
                    pos += len(jobs)
        # trailing sentinel keeps clipped gathers of exhausted/empty/padding
        # segments in bounds (masked before use, never selected)
        self.rel_flat = np.array(rel_parts + [_FAR], dtype=np.int64)
        self.size_flat = np.array(size_parts + [1], dtype=np.int64)
        self.seg_clip = np.maximum(self.seg_len - 1, 0)

        #: per-(instance, org) released counts and per-(row, org) started
        #: counts; row r of instance i waits on org u's jobs in
        #: ``[started[r,u], released[i,u])``
        self.released = np.zeros((B, k_max), dtype=np.int64)
        self.started = np.zeros((n, k_max), dtype=np.int64)
        self.started[~self.member] = _FAR

        # --- psi_sp ledgers (instance-local org columns) -------------------
        self.done_units = np.zeros((n, k_max), dtype=np.int64)
        self.done_wstart = np.zeros((n, k_max), dtype=np.int64)
        self.rcount = np.zeros((n, k_max), dtype=np.int64)
        self.rsum = np.zeros((n, k_max), dtype=np.int64)
        self.rsq = np.zeros((n, k_max), dtype=np.int64)

        # --- chronological start log (SoA, grown geometrically) -----------
        cap = 256
        self._log_row = np.empty(cap, dtype=np.int64)
        self._log_start = np.empty(cap, dtype=np.int64)
        self._log_mach = np.empty(cap, dtype=np.int64)
        self._log_job = np.empty(cap, dtype=np.int64)
        self._log_len = 0

        #: per-instance clocks and liveness
        self.t_inst = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        self.head_rel = np.full((B, k_max), _FAR, dtype=np.int64)
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # event bookkeeping
    # ------------------------------------------------------------------
    def _refresh_head_rel(self) -> None:
        if not self.k_max:
            self.next_rel = np.full(self.B, _FAR, dtype=np.int64)
            return
        idx = self.seg_start + np.minimum(self.released, self.seg_clip)
        have = self.released < self.seg_len
        self.head_rel = np.where(have, self.rel_flat[idx], _FAR)
        self.next_rel = self.head_rel.min(axis=1)

    def _next_fin(self) -> np.ndarray:
        if not (self.n and self.n_mach_max):
            return np.full(self.B, _FAR, dtype=np.int64)
        row_min = self.finish.min(axis=1)
        return np.minimum.reduceat(row_min, self.row0)

    # ------------------------------------------------------------------
    # jagged lockstep advancement
    # ------------------------------------------------------------------
    def sweep(self) -> "np.ndarray | None":
        """Advance every live instance to its *own* next event time:
        process its completions and releases and move its clock.  Returns
        the ``(B,)`` bool mask of instances that advanced to a pre-horizon
        decision time (their rows are eligible for starts this sweep), or
        ``None`` when every instance is done.

        Each instance's sequence of sweep times is exactly its own
        ``min(next completion, next release)`` event iteration -- the
        decision-time stream of the per-instance event loop.  An instance
        whose next event falls at/after its horizon is finished without
        processing it (post-horizon completions cannot change the start
        log, hence not the schedule)."""
        nt = np.minimum(self._next_fin(), self.next_rel)
        live = ~self.done & (nt < _FAR)
        finished = live & (nt >= self.horizon)
        if finished.any():
            self.done |= finished
            live &= ~finished
        if not live.any():
            self.done[:] = True
            return None
        thr = np.where(live, nt, _I64_MIN)
        self._complete_upto(thr)
        self._release_upto(thr)
        self.t_inst = np.where(live, nt, self.t_inst)
        return live

    def _complete_upto(self, thr: np.ndarray) -> None:
        """Process every completion with ``finish <= thr[instance]`` (the
        per-row-threshold form of ``FleetKernel._complete_upto``)."""
        if not self.n_mach_max:
            return
        thr_row = thr[self.row_inst]
        # flat slot / cell indices on reshape(-1) views, as in the
        # single-instance kernel (the arrays are C-contiguous and owned
        # here); cells repeat when two machines of a row finish one org's
        # jobs at once, hence np.add.at
        slot = np.flatnonzero(self.finish <= thr_row[:, None])
        if not slot.size:
            return
        fin = self.finish.reshape(-1)
        e = slot // self.n_mach_max
        starts = self.run_start.reshape(-1)[slot]
        sizes = fin[slot] - starts
        tri = sizes * starts + sizes * (sizes - 1) // 2
        cell = e * self.k_max + self.run_org.reshape(-1)[slot]
        np.add.at(self.done_units.reshape(-1), cell, sizes)
        np.add.at(self.done_wstart.reshape(-1), cell, tri)
        np.add.at(self.rcount.reshape(-1), cell, -1)
        np.add.at(self.rsum.reshape(-1), cell, -starts)
        np.add.at(self.rsq.reshape(-1), cell, -(starts * starts))
        fin[slot] = _FAR
        self.free.reshape(-1)[slot] = True
        np.add.at(self.free_count, e, 1)

    def _release_upto(self, thr: np.ndarray) -> None:
        """Advance every (instance, org) release pointer past jobs released
        at ``<= thr[instance]`` (each pointer advances once per distinct
        release time over the whole run, so the Python loop amortizes)."""
        ii, uu = np.nonzero(self.head_rel <= thr[:, None])
        if not ii.size:
            return
        for i, u in zip(ii.tolist(), uu.tolist()):
            lo = int(self.seg_start[i, u] + self.released[i, u])
            hi = int(self.seg_start[i, u] + self.seg_len[i, u])
            self.released[i, u] += int(
                np.searchsorted(
                    self.rel_flat[lo:hi], int(thr[i]), side="right"
                )
            )
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # batched queries (per-row instance clocks)
    # ------------------------------------------------------------------
    def capable_rows(self, act: np.ndarray) -> np.ndarray:
        """Rows of this sweep's active instances with a free machine and a
        waiting job (the start-eligible set)."""
        waiting = (self.started < self.released[self.row_inst]).any(axis=1)
        return act[self.row_inst] & (self.free_count > 0) & waiting

    def psis_rows(self) -> np.ndarray:
        """Per-(row, org) psi_sp, each row evaluated at its own instance
        clock.  Always int64-exact: every clock is bounded by its
        instance's certified ``T_i``, so no runtime guard is needed (the
        construction-time certification covers every sweep query)."""
        t = self.t_inst[self.row_inst]
        tc = t[:, None]
        return (
            self.done_units * tc
            - self.done_wstart
            + (
                self.rcount * (t * t + t)[:, None]
                - self.rsum * (2 * t + 1)[:, None]
                + self.rsq
            )
            // 2
        )

    # ------------------------------------------------------------------
    # batched scheduling rounds
    # ------------------------------------------------------------------
    def fill_rows(self, rows: np.ndarray, keys: np.ndarray) -> None:
        """Batched ``fill_capacity`` at per-row times: repeatedly start the
        FIFO-head job of the waiting org maximizing ``keys[row, org]``
        (ties: lowest org id) on every row while it has a free machine and
        waiting work.  ``keys`` is aligned with ``rows``; starts stamp each
        row's own instance clock."""
        keys = np.asarray(keys, dtype=np.int64)
        t_row = self.t_inst[self.row_inst[rows]]
        while rows.size:
            wait = self.started[rows] < self.released[self.row_inst[rows]]
            cap = (self.free_count[rows] > 0) & wait.any(axis=1)
            if not cap.all():
                rows = rows[cap]
                keys = keys[cap]
                t_row = t_row[cap]
                wait = wait[cap]
            if not rows.size:
                return
            masked = np.where(wait, keys, _I64_MIN)
            sel = masked.argmax(axis=1)  # first max == lowest org id
            self._start_batch(rows, sel, t_row)

    def _start_batch(
        self, rows: np.ndarray, sel: np.ndarray, t_row: np.ndarray
    ) -> None:
        inst = self.row_inst[rows]
        jidx = self.started[rows, sel]
        flat = self.seg_start[inst, sel] + jidx
        fins = t_row + self.size_flat[flat]
        mach = self.free[rows].argmax(axis=1)  # first True == lowest free id
        self.finish[rows, mach] = fins
        self.run_org[rows, mach] = sel
        self.run_start[rows, mach] = t_row
        self.free[rows, mach] = False
        self.free_count[rows] -= 1
        self.started[rows, sel] += 1
        self.rcount[rows, sel] += 1
        self.rsum[rows, sel] += t_row
        self.rsq[rows, sel] += t_row * t_row
        self._log_append(rows, mach, flat, t_row)

    def _log_append(self, rows, mach, flat, t_row) -> None:
        b = len(rows)
        need = self._log_len + b
        if need > len(self._log_row):
            cap = max(need, 2 * len(self._log_row))
            for name in ("_log_row", "_log_start", "_log_mach", "_log_job"):
                old = getattr(self, name)
                new = np.empty(cap, dtype=np.int64)
                new[: self._log_len] = old[: self._log_len]
                setattr(self, name, new)
        s = slice(self._log_len, need)
        self._log_row[s] = rows
        self._log_start[s] = t_row
        self._log_mach[s] = mach
        self._log_job[s] = flat
        self._log_len = need

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def row_entries(self, row: int) -> "list[ScheduledJob]":
        """One row's start log in chronological order (exact Job objects;
        machine ids are the owning instance's canonical ids)."""
        idx = np.flatnonzero(self._log_row[: self._log_len] == row)
        jobs = self.jobs_flat
        return [
            ScheduledJob(
                int(self._log_start[i]),
                int(self._log_mach[i]),
                jobs[int(self._log_job[i])],
            )
            for i in idx
        ]
