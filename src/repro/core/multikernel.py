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

The rows' state is the single-instance kernel's
:class:`~repro.core.kernel.RowRecord`, and so are its completions, starts,
start log, ``psis`` and row entries: where ``FleetKernel`` passes its one
clock, this kernel passes each row's instance clock as a column.  What
stays here is the instance axis (local coordinates, padded to the batch
maxima):

* rows are grouped per instance (``row0[i] .. row0[i+1]``), ``row_inst``
  maps each row back to its instance;
* organization columns are the instance's *own* org ids ``0..k_i-1``
  (padding columns are non-members of every row);
* machine columns are the instance's *own* canonical machine ids
  ``0..M_i-1`` (padding columns are absent: never free, finish ``_FAR``),
  so logged starts translate directly into each instance's schedule;
* job streams concatenate per-(instance, org) segments of the canonical
  per-org arrays, addressed by ``seg_start``/``seg_len`` -- the
  two-dimensional form of ``FleetKernel.org_start`` (a row's log entries
  resolve through its instance's ``seg_start`` row);
* per-instance release pointers, clocks, horizons and the jagged event
  iteration (:meth:`MultiInstanceKernel.sweep`).  :meth:`fill_rows` stays
  a separate copy of ``FleetKernel.fill_rows``: its waiting predicate
  gathers each row's instance pointers.

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

from .job import Job
from .kernel import (
    _FAR,
    _I64_MIN,
    _QUERY_CAP,
    KernelUnsafe,
    RowRecord,
    _overflow_bound,
)
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
        for i, (wl, _, horizon) in enumerate(items):
            bound = instance_bound(wl, horizon)
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

        # --- rows: instance-local org and canonical machine columns --------
        member = np.zeros((n, k_max), dtype=bool)
        has_machine = np.zeros((n, m_max), dtype=bool)
        for i, (wl, masks, _) in enumerate(items):
            block = np.array(masks, dtype=np.int64)[:, None]
            rows = slice(self.row0[i], self.row0[i] + len(masks))
            bits = (block >> np.arange(wl.n_orgs, dtype=np.int64)) & 1
            member[rows, : wl.n_orgs] = bits.astype(bool)
            owners = [o.id for o in wl.organizations for _ in range(o.machines)]
            has_machine[rows, : len(owners)] = member[rows][:, owners]
        self.rec = RowRecord(member, has_machine)

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

        #: per-(instance, org) released counts; row r of instance i waits
        #: on org u's jobs in ``[rec.started[r,u], released[i,u])``
        self.released = np.zeros((B, k_max), dtype=np.int64)

        #: per-instance clocks and liveness
        self.t_inst = np.zeros(B, dtype=np.int64)
        self.done = np.zeros(B, dtype=bool)
        self._refresh_head_rel()

    # ------------------------------------------------------------------
    # event bookkeeping
    # ------------------------------------------------------------------
    def _refresh_head_rel(self) -> None:
        idx = self.seg_start + np.minimum(self.released, self.seg_clip)
        have = self.released < self.seg_len
        self.head_rel = np.where(have, self.rel_flat[idx], _FAR)
        self.next_rel = self.head_rel.min(axis=1, initial=_FAR)

    def _next_fin(self) -> np.ndarray:
        if not (self.n and self.n_mach_max):
            return np.full(self.B, _FAR, dtype=np.int64)
        row_min = self.rec.finish.min(axis=1)
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
        # a done instance's threshold completes nothing
        self.rec.complete(thr[self.row_inst][:, None])
        self._release_upto(thr)
        self.t_inst = np.where(live, nt, self.t_inst)
        return live

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
    # batched queries and scheduling rounds (per-row instance clocks)
    # ------------------------------------------------------------------
    def capable_rows(self, act: np.ndarray) -> np.ndarray:
        """Rows of this sweep's active instances with a free machine and a
        waiting job (the start-eligible set)."""
        rec = self.rec
        waiting = (rec.started < self.released[self.row_inst]).any(axis=1)
        return act[self.row_inst] & (rec.free_count > 0) & waiting

    def fill_rows(self, rows: np.ndarray, keys: np.ndarray) -> None:
        """Batched ``fill_capacity`` at per-row times: repeatedly start the
        FIFO-head job of the waiting org maximizing ``keys[row, org]``
        (ties: lowest org id) on every row while it has a free machine and
        waiting work.  ``keys`` is aligned with ``rows``; starts stamp each
        row's own instance clock."""
        rec = self.rec
        keys = np.asarray(keys, dtype=np.int64)
        inst = self.row_inst[rows]
        t_row = self.t_inst[inst]
        while rows.size:
            wait = rec.started[rows] < self.released[inst]
            cap = (rec.free_count[rows] > 0) & wait.any(axis=1)
            if not cap.all():
                rows, keys, inst = rows[cap], keys[cap], inst[cap]
                t_row = t_row[cap]
                wait = wait[cap]
            if not rows.size:
                return
            masked = np.where(wait, keys, _I64_MIN)
            sel = masked.argmax(axis=1)  # first max == lowest org id
            rec.start(
                rows, sel, t_row, self.seg_start[inst, sel], self.size_flat
            )
