"""CoalitionFleet: the shared per-coalition value oracle (DESIGN.md §2.4, §8).

Every fair scheduler in the paper -- REF (Figs. 1/3), its general-utility
variant, RAND (Fig. 6) and DIRECTCONTR (Fig. 9) -- needs the same primitive:
*advance a family of per-coalition cluster simulations to time t and read
their values v(C', t)*.  This module owns that primitive once, so the
algorithm modules are thin policies:

* one :class:`~repro.core.engine.ClusterEngine` per registered coalition
  bitmask, advanced in lockstep (or driven lazily by a per-coalition greedy
  policy, as RAND's sampled coalitions require);
* one shared :class:`~repro.core.events.EventQueue` seeded with the release
  times of every covered organization's jobs; engine starts push their
  completion times back into it (:meth:`CoalitionFleet.start_next`);
* a **vectorized psi_sp ledger**: each engine's O(1) value aggregates
  ``(units, wstart, n_running, Σstart, Σstart²)`` are mirrored into int64
  numpy columns, so :meth:`values_at` evaluates *all* coalition values at an
  event time with a handful of array ops instead of ``2^k`` Python loops of
  ``O(k + #running)`` each.

**Kernel dispatch** (DESIGN.md §8): a fleet of at least
:data:`~repro.core.kernel.KERNEL_MIN_ENGINES` coalitions over a workload
whose arithmetic is :func:`~repro.core.kernel.kernel_certified` does not
build per-coalition engines at all -- the whole family lives in one
:class:`~repro.core.kernel.FleetKernel` structure-of-arrays simulation, and
``advance_all`` / ``values_array`` (lockstep or FIFO-driven) / ``submit`` /
``start_next`` become a handful of vectorized array passes.  The public API
is unchanged: :meth:`engine` returns a live
:class:`~repro.core.kernel.KernelEngineView`, and any operation the arrays
cannot express (adopting an externally built engine, ``replace_engine``,
dynamic machine mutation through a view, an unknown drive policy)
transparently *materializes* real engines -- bit-identical state, same
schedules -- and continues in per-engine mode (several times slower, so
the fallback is counted and named: :attr:`CoalitionFleet.n_materializations`,
:attr:`~CoalitionFleet.materialize_reason`, :meth:`~CoalitionFleet.
backend_status`).  ``backend="engines"`` or ``backend="kernel"`` forces
either mode.

Dirty tracking: an engine's :attr:`~repro.core.engine.ClusterEngine.version`
counter bumps only on value-affecting mutations (job starts / completions),
so a ledger row is re-read only when its coalition processed such an event
since the last query -- releases and no-op advances cost nothing.

Exactness: the ledger is int64 with an overflow guard.  Aggregates are
checked when mirrored, and each query bounds the largest possible
intermediate from running column maxima; if either check trips, the query
falls back to the engines' exact unbounded-int path
(:meth:`~repro.core.engine.ClusterEngine.value`), so no scheduling decision
is ever affected by wraparound.  The kernel keeps the same contract with
its own two-tier guard (construction-time certification plus per-query
checks).  Property tests verify all paths agree.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import kernel as kernel_mod
from .coalition import iter_members
from .engine import ClusterEngine
from .events import EventQueue
from .kernel import FleetKernel, KernelEngineView, KernelUnsafe, kernel_certified
from .schedule import ScheduledJob
from .workload import Workload

__all__ = ["CoalitionFleet"]

#: Magnitude cap for a single mirrored ledger scalar.  Chosen so the query
#: guard (a sum of five products of a scalar with ~t², see values_array) can
#: certify the full expression fits in signed int64.
_SCALAR_CAP = 1 << 61

#: Cap for the certified worst-case intermediate of one vectorized query.
_QUERY_CAP = 1 << 62

SelectFn = Callable[[ClusterEngine], int]


class CoalitionFleet:
    """Owns the engines for a set of coalition masks and serves batched
    coalition values at event times.

    Parameters
    ----------
    workload:
        The shared problem instance.
    masks:
        Initial coalition bitmasks (nonzero).  More can be registered later
        with :meth:`add_mask` (e.g. the lazily-growing cache of
        :class:`repro.shapley.games.SchedulingGame`).
    horizon:
        Optional stop time, forwarded to every engine: events at
        ``t >= horizon`` are not processed.
    track_events:
        Seed the shared :attr:`events` queue with covered organizations'
        job releases (and accept completion pushes).  Pass ``False`` for
        fleets driven by a per-engine loop or used purely as a value
        oracle, where the queue would only accumulate unpopped entries.
    backend:
        ``"auto"`` (default) chooses the batched
        :class:`~repro.core.kernel.FleetKernel` when the construction-time
        mask count reaches :data:`~repro.core.kernel.KERNEL_MIN_ENGINES`
        and the workload passes int64 certification; ``"engines"`` /
        ``"kernel"`` force a mode (the latter still requires
        certification).
    """

    def __init__(
        self,
        workload: Workload,
        masks: Iterable[int] = (),
        *,
        horizon: int | None = None,
        track_events: bool = True,
        backend: str = "auto",
    ) -> None:
        if backend not in ("auto", "engines", "kernel"):
            raise ValueError("backend must be 'auto', 'engines' or 'kernel'")
        self.workload = workload
        self.horizon = horizon
        self._track_events = track_events
        self._engines: dict[int, ClusterEngine] = {}
        self._order: list[int] = []
        self._mask_set: set[int] = set()
        #: union of the registered masks (which orgs have any coalition)
        self._covered = 0
        #: shared decision-time queue: job releases of covered orgs, plus
        #: completion times of every start made through the fleet
        self.events = EventQueue()
        self._seeded_orgs: set[int] = set()
        # ledger columns (int64, grown geometrically; per-engine mode only)
        cap = 8
        self._units = np.zeros(cap, np.int64)
        self._wstart = np.zeros(cap, np.int64)
        self._rcount = np.zeros(cap, np.int64)
        self._rsum = np.zeros(cap, np.int64)
        self._rsq = np.zeros(cap, np.int64)
        self._seen = np.full(cap, -1, np.int64)
        # running column maxima (exact Python ints; grow monotonically, so
        # they are conservative bounds for the overflow guard)
        self._mx_units = 0
        self._mx_wstart = 0
        self._mx_rcount = 0
        self._mx_rsum = 0
        self._mx_rsq = 0
        #: permanently False once any engine scalar exceeds the int64 cap
        self._int64_ok = True
        # kernel-backend state
        self._use_kernel = False
        self._kernel_obj: FleetKernel | None = None
        self._kernel_stale = False
        self._views: dict[int, KernelEngineView] = {}
        #: kernel -> per-engine fallbacks taken, and why the last one was:
        #: ``unsafe_submit``, ``adopt_engine``, ``add_mask`` (on a used
        #: kernel), ``remove_mask``, ``unknown_drive``, ``view_mutation``
        #: or ``explicit`` (a direct ``_materialize()`` call)
        self.n_materializations = 0
        self.materialize_reason: str | None = None
        self._constructing = True
        for m in masks:
            self.add_mask(m)
        self._constructing = False
        wants_kernel = backend == "kernel" or (
            backend == "auto"
            and len(self._order) >= kernel_mod.KERNEL_MIN_ENGINES
        )
        if wants_kernel and kernel_certified(workload, horizon):
            self._use_kernel = True
            self._kernel_stale = True
        else:
            while len(self._seen) < len(self._order):
                self._grow()
            for m in self._order:
                self._engines[m] = ClusterEngine(
                    workload, list(iter_members(m)), horizon=horizon
                )

    # ------------------------------------------------------------------
    # backend plumbing
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> "FleetKernel | None":
        """The live structure-of-arrays backend, or ``None`` in per-engine
        mode (built lazily; algorithm fast paths key off this)."""
        if not self._use_kernel:
            return None
        if self._kernel_stale or self._kernel_obj is None:
            self._kernel_obj = FleetKernel(
                self.workload,
                self._order,
                self.horizon,
                self.events if self._track_events else None,
            )
            self._kernel_stale = False
        return self._kernel_obj

    def _materialize(self, reason: str = "explicit") -> None:
        """Escape hatch: reconstruct every kernel row as a real, bit-identical
        :class:`~repro.core.engine.ClusterEngine` and continue per-engine."""
        if not self._use_kernel:
            return
        self.n_materializations += 1
        self.materialize_reason = reason
        kern = self._kernel_obj
        if kern is not None and not self._kernel_stale:
            for i, m in enumerate(self._order):
                self._engines[m] = kern.materialize_row(i)
        else:  # never used: virgin engines are identical to virgin rows
            for m in self._order:
                self._engines[m] = ClusterEngine(
                    self.workload, list(iter_members(m)), horizon=self.horizon
                )
        self._use_kernel = False
        self._kernel_obj = None
        self._kernel_stale = False
        # held views become permanent proxies for the engines their masks
        # resolved to at this moment (object-identity semantics survive a
        # later replace_engine, like real engine references would)
        for mask, view in self._views.items():
            view._bound = self._engines.get(mask)
        self._views.clear()
        while len(self._seen) < len(self._order):
            self._grow()
        self._seen[: len(self._order)] = -1

    def backend_status(self) -> dict:
        """Which backend serves this fleet, how often it fell back from the
        kernel, and how many starts its log(s) hold (JSON-friendly)."""
        if self._use_kernel:
            kern = self._kernel_obj
            entries = 0 if kern is None or self._kernel_stale else kern._log_len
        else:
            entries = sum(len(e._log) for e in self._engines.values())
        return {
            "backend": "kernel" if self._use_kernel else "engines",
            "materializations": self.n_materializations,
            "start_log_entries": int(entries),
        }

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def masks(self) -> tuple[int, ...]:
        """Registered coalition masks, in registration order."""
        return tuple(self._order)

    def __contains__(self, mask: int) -> bool:
        return mask in self._mask_set

    def __len__(self) -> int:
        return len(self._order)

    def engine(self, mask: int) -> ClusterEngine:
        """The engine simulating coalition ``mask`` (a live
        :class:`~repro.core.kernel.KernelEngineView` under the kernel
        backend -- same read API, mutations materialize)."""
        if self._use_kernel:
            if mask not in self._mask_set:
                raise KeyError(mask)
            view = self._views.get(mask)
            if view is None:
                view = self._views[mask] = KernelEngineView(self, mask)
            return view
        return self._engines[mask]

    def add_mask(
        self, mask: int, engine: ClusterEngine | None = None
    ) -> ClusterEngine:
        """Register a coalition (idempotent) and return its engine.

        Release times of newly covered organizations are pushed into the
        shared event queue.  ``engine`` adopts an externally built engine
        (the online service constructs engines from its *dynamic* cluster
        state -- machines added at runtime, coalitions formed mid-stream --
        which the fleet's frozen ``workload`` cannot describe) instead of
        simulating ``mask`` over ``self.workload`` from time zero.
        """
        if isinstance(engine, KernelEngineView):
            # adopt the underlying real engine
            engine = engine._escape("adopt_engine")
        if mask in self._mask_set:
            return self.engine(mask)
        if mask <= 0:
            raise ValueError("coalition mask must be a nonzero bitmask")
        members = list(iter_members(mask))
        if self._constructing:
            # engine construction is deferred until the backend is chosen
            # at the end of __init__ (the kernel backend never builds them)
            if engine is not None:
                raise ValueError(
                    "cannot adopt an external engine at construction"
                )
            self._register(mask, members)
            return None  # unused during construction
        if self._use_kernel:
            kern = self._kernel_obj
            if engine is None and (kern is None or not kern._used):
                # pristine kernel: absorb the mask by (lazily) rebuilding
                self._register(mask, members)
                self._kernel_stale = True
                return self.engine(mask)
            self._materialize("add_mask" if engine is None else "adopt_engine")
        eng = (
            engine
            if engine is not None
            else ClusterEngine(self.workload, members, horizon=self.horizon)
        )
        row = len(self._order)
        if row == len(self._seen):
            self._grow()
        self._engines[mask] = eng
        self._register(mask, members)
        return eng

    def _register(self, mask: int, members: "list[int]") -> None:
        self._order.append(mask)
        self._mask_set.add(mask)
        self._covered |= mask
        self._seed_releases(members)

    def _seed_releases(self, members: "list[int]") -> None:
        if not self._track_events:
            return
        new_orgs = [u for u in members if u not in self._seeded_orgs]
        if new_orgs:
            self._seeded_orgs.update(new_orgs)
            new_set = set(new_orgs)
            for j in self.workload.jobs:
                if j.org in new_set:
                    self.events.push(j.release)

    def remove_mask(self, mask: int) -> ClusterEngine:
        """Deregister a coalition and return its (still valid) engine.

        The online service drops coalitions containing a departed
        organization.  Ledger rows above the removed one shift down in
        lockstep with :attr:`masks`, so dirty tracking stays aligned; the
        running column maxima stay (conservatively) as they are.
        """
        if mask not in self._mask_set:
            raise KeyError(f"mask {mask} is not registered")
        self._materialize("remove_mask")
        eng = self._engines.pop(mask)
        self._mask_set.discard(mask)
        i = self._order.index(mask)
        self._order.pop(i)
        self._covered = 0
        for m in self._order:
            self._covered |= m
        n = len(self._order)
        for name in ("_units", "_wstart", "_rcount", "_rsum", "_rsq", "_seen"):
            col = getattr(self, name)
            col[i:n] = col[i + 1 : n + 1]
            col[n] = -1 if name == "_seen" else 0
        return eng

    def replace_engine(self, mask: int, engine: ClusterEngine) -> None:
        """Swap the engine simulating ``mask`` (same coalition, new object).

        The online service uses this to fork a coalition's engine at a
        membership epoch: the physical engine moves to the grown coalition
        while a deep copy continues the old mask's counterfactual.  The
        ledger row is marked dirty so the next query re-mirrors it.
        """
        if mask not in self._mask_set:
            raise KeyError(f"mask {mask} is not registered")
        if isinstance(engine, KernelEngineView):
            engine = engine._escape("adopt_engine")
        self._materialize("adopt_engine")
        self._engines[mask] = engine
        self._seen[self._order.index(mask)] = -1

    def submit(self, job) -> None:
        """Feed one job to every registered engine covering its owner and
        push its release into the shared decision queue (online ingestion;
        the batch path instead freezes streams at construction)."""
        bit = 1 << job.org
        if not self._covered & bit:
            raise ValueError(f"no registered coalition covers org {job.org}")
        if self._use_kernel:
            try:
                kern = self.kernel
                assert kern is not None
                kern.submit(job)
            except KernelUnsafe:
                self._materialize("unsafe_submit")
        if not self._use_kernel:
            for mask in self._order:
                if mask & bit:
                    self._engines[mask].submit(job)
        if self._track_events:
            self.events.push(job.release)

    def _grow(self) -> None:
        cap = 2 * len(self._seen)
        for name in ("_units", "_wstart", "_rcount", "_rsum", "_rsq", "_seen"):
            old = getattr(self, name)
            new = np.full(cap, -1, np.int64) if name == "_seen" else np.zeros(
                cap, np.int64
            )
            new[: len(old)] = old
            setattr(self, name, new)

    # ------------------------------------------------------------------
    # event iteration
    # ------------------------------------------------------------------
    def next_decision(self) -> int | None:
        """Pop the next decision time from the shared queue (deduplicated),
        or ``None`` when exhausted or at/after the horizon."""
        t = self.events.pop()
        if t is None:
            return None
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    def peek_decision(self) -> int | None:
        """The next decision time without consuming it (``None`` when
        exhausted or at/after the horizon) -- how the online service bounds
        event processing by its ingest clock."""
        t = self.events.peek()
        if t is None:
            return None
        if self.horizon is not None and t >= self.horizon:
            return None
        return t

    # ------------------------------------------------------------------
    # lockstep / lazy advancement
    # ------------------------------------------------------------------
    def advance_all(self, t: int) -> None:
        """Process every engine's events up to ``t`` (lockstep advance).

        Engines with no pending event at or before ``t`` are left lazily
        behind: with no release or completion in ``(engine.t, t]`` their
        scheduler-visible state and their value ledger are already exact at
        ``t`` (psi_sp only changes through starts and completions, and the
        greedy invariant guarantees they have no free-machine/waiting-job
        pair to act on).
        """
        if self._use_kernel:
            kern = self.kernel
            assert kern is not None
            if t >= kern.t:
                kern.advance(t)
            return
        self._sync(t, None)

    def drive(self, mask: int, select: SelectFn, until: int) -> None:
        """Drive one engine's own greedy event loop to ``until`` (events at
        ``until`` included), then align its clock with ``until``."""
        self._materialize("unknown_drive")
        eng = self._engines[mask]
        eng.drive(select, until=until)
        if eng.t < until:
            eng.advance_to(until)

    def _sync(self, t: int, select: SelectFn | None) -> list[int]:
        """Bring every engine to ``t`` (advance, or drive with ``select``)
        in one pass and return the row indices of engines already *past*
        ``t`` -- the retrospective rows :meth:`values_array` must value
        from their start logs.  Horizon capping is not needed here:
        decision times already stop before the horizon, and processing a
        completion/release never changes psi_sp.
        """
        ahead: list[int] = []
        for i, mask in enumerate(self._order):
            eng = self._engines[mask]
            if select is None:
                if eng.has_event_at_or_before(t):
                    eng.advance_to(t)
                elif eng.t > t:
                    ahead.append(i)
            elif eng.t <= t:
                eng.drive(select, until=t)
                if eng.t < t:
                    eng.advance_to(t)
            else:
                ahead.append(i)
        return ahead

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def start_next(
        self, mask: int, org: int, machine: int | None = None
    ) -> ScheduledJob:
        """Start ``org``'s FIFO-head job on coalition ``mask``'s cluster and
        push the completion time into the shared event queue (when event
        tracking is on)."""
        if self._use_kernel:
            kern = self.kernel
            assert kern is not None
            entry = kern.start_row(kern._row[mask], org, machine)
        else:
            entry = self._engines[mask].start_next(org, machine=machine)
        if self._track_events:
            self.events.push(entry.end)
        return entry

    def fill_rows(
        self, rows: np.ndarray, keys: "np.ndarray | None", t: int
    ) -> None:
        """Kernel fast path for :func:`repro.algorithms.base.fill_capacity`
        over many coalitions at once: batched greedy rounds starting the
        ``argmax(keys)`` organization's FIFO-head job on every still-capable
        row (ties: lowest org id; ``keys=None`` when no row has a choice).
        Kernel backend only."""
        kern = self.kernel
        if kern is None:
            raise RuntimeError("fill_rows requires the kernel backend")
        kern.fill_rows(rows, keys, t)

    # ------------------------------------------------------------------
    # batched coalition values
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Mirror dirty engines' ledgers into the numpy columns."""
        seen = self._seen
        for i, mask in enumerate(self._order):
            eng = self._engines[mask]
            v = eng.version
            if v == seen[i]:
                continue
            units, wstart, rcount, rsum, rsq = eng.ledger()
            if units >= _SCALAR_CAP or wstart >= _SCALAR_CAP or rsq >= _SCALAR_CAP:
                self._int64_ok = False
            else:
                self._units[i] = units
                self._wstart[i] = wstart
                self._rcount[i] = rcount
                self._rsum[i] = rsum
                self._rsq[i] = rsq
                if units > self._mx_units:
                    self._mx_units = units
                if wstart > self._mx_wstart:
                    self._mx_wstart = wstart
                if rcount > self._mx_rcount:
                    self._mx_rcount = rcount
                if rsum > self._mx_rsum:
                    self._mx_rsum = rsum
                if rsq > self._mx_rsq:
                    self._mx_rsq = rsq
            seen[i] = v

    def _vector_safe(self, t: int) -> bool:
        """Certify that the vectorized int64 query at ``t`` cannot overflow."""
        if not self._int64_ok or t < 0:
            return False
        tt = t * t + t
        # the scalars t*t+t and 2t+1 are materialized as int64 inside the
        # numpy expression even when every ledger column is zero, so they
        # must fit on their own
        if tt >= _QUERY_CAP:
            return False
        bound = (
            self._mx_units * t
            + self._mx_wstart
            + self._mx_rcount * tt
            + self._mx_rsum * (2 * t + 1)
            + self._mx_rsq
        )
        return bound < _QUERY_CAP

    def _kernel_sync(
        self, t: int, select: "SelectFn | None"
    ) -> "FleetKernel | None":
        """Bring the kernel to ``t`` for a value query; returns the kernel,
        or ``None`` after materializing on an unknown drive policy."""
        kern = self.kernel
        assert kern is not None
        if select is None:
            if t >= kern.t:
                kern.advance(t)
        elif getattr(select, "kernel_policy", None) == "fifo":
            # the canonical greedy FIFO selectors carry this tag: the
            # kernel drives them natively
            if t >= kern.t:
                kern.drive_fifo(t)
        else:
            self._materialize("unknown_drive")
            return None
        return kern

    def values_array(
        self, t: int, *, select: SelectFn | None = None
    ) -> "np.ndarray | None":
        """Coalition values at ``t`` as an int64 array aligned with
        :attr:`masks`, or ``None`` when the overflow guard trips (use
        :meth:`values_at`, which falls back to exact arithmetic).

        Every engine is brought to ``t`` first: driven by ``select`` when
        given (its own greedy policy, RAND-style), otherwise advanced in
        lockstep.  An engine lazily left at ``engine.t < t`` has no start or
        completion in ``(engine.t, t]``, so its ledger row evaluates exactly
        at ``t``; engines already *past* ``t`` (retrospective queries) are
        valued exactly from their start logs instead.
        """
        if self._use_kernel:
            kern = self._kernel_sync(t, select)
            if kern is not None:
                if t < kern.t:
                    return kern.values_retro(t)
                return kern.values_i64(t)
            # fall through: materialized on an unknown policy
        ahead = self._sync(t, select)
        if not self._int64_ok:  # permanent exact mode: skip the dead mirror
            return None
        self._refresh()
        if not self._vector_safe(t):
            return None
        n = len(self._order)
        rows = slice(0, n)
        vals = (
            self._units[rows] * t
            - self._wstart[rows]
            + (
                self._rcount[rows] * (t * t + t)
                - self._rsum[rows] * (2 * t + 1)
                + self._rsq[rows]
            )
            // 2
        )
        for i in ahead:  # retrospective rows: value from the start log
            exact = self._engines[self._order[i]].value(t)
            if abs(exact) >= _SCALAR_CAP:
                return None
            vals[i] = exact
        return vals

    def values_at(
        self, t: int, *, select: SelectFn | None = None
    ) -> dict[int, int]:
        """Coalition values ``{mask: v(C', t)}`` for every registered mask,
        plus the empty coalition ``{0: 0}`` -- exactly the table the REF
        recursion's ``UpdateVals`` consumes."""
        arr = self.values_array(t, select=select)
        values: dict[int, int] = {0: 0}
        if arr is not None:
            values.update(zip(self._order, arr.tolist()))
            return values
        if self._use_kernel:
            # kernel guard tripped at t >= kernel.t: exact Python-int formula
            # over the (certified exact) int64 ledgers
            kern = self._kernel_obj
            assert kern is not None
            values.update(zip(self._order, kern.values_exact(t)))
            return values
        # exact fallback: unbounded Python ints via each engine
        for mask in self._order:
            values[mask] = self._engines[mask].value(t)
        return values

    def values_exact(self, t: int) -> dict[int, int]:
        """Like :meth:`values_at` but always on the engines' unbounded-int
        path, skipping the numpy ledger entirely.  With the engines' O(1)
        value formula this wins for small fleets (few dozen coalitions),
        where per-query array overhead exceeds the loop it replaces."""
        self.advance_all(t)
        if self._use_kernel:
            kern = self._kernel_obj
            assert kern is not None
            row_values = (
                kern.values_retro(t).tolist()
                if t < kern.t
                else kern.values_exact(t)
            )
        else:
            row_values = [self._engines[m].value(t) for m in self._order]
        values: dict[int, int] = {0: 0}
        values.update(zip(self._order, row_values))
        return values
