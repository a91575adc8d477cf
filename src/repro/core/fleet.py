"""CoalitionFleet: the shared per-coalition value oracle (DESIGN.md §2.4, §8).

Every fair scheduler in the paper -- REF (Figs. 1/3), its general-utility
variant, RAND (Fig. 6) and DIRECTCONTR (Fig. 9) -- needs the same primitive:
*advance a family of per-coalition cluster simulations to time t and read
their values v(C', t)*.  This module owns that primitive once, so the
algorithm modules are thin policies:

* one :class:`~repro.core.engine.ClusterEngine` per registered coalition
  bitmask, advanced in lockstep (or driven lazily by a per-coalition greedy
  policy, as RAND's sampled coalitions require);
* one decision-time rule: the next release or completion in any of the
  simulations (:meth:`CoalitionFleet.next_event_time`), read from the
  engines or the kernel rather than kept in a second copy;
* one value path: a query brings every engine not already past ``t`` to
  ``t`` and reads :meth:`~repro.core.engine.ClusterEngine.value` from each
  -- the engine's O(1) ledger formula at its own clock, its start log for
  an engine already past ``t``.  Values are exact Python ints;
  :meth:`values_array` hands them over as int64 unless one reaches
  ``2**62``, and each int64 consumer guards its own products.

**Kernel dispatch** (DESIGN.md §8): a fleet of at least
:data:`~repro.core.kernel.KERNEL_MIN_ENGINES` coalitions over a workload
whose arithmetic is :func:`~repro.core.kernel.kernel_certified` does not
build per-coalition engines at all -- the whole family lives in one
:class:`~repro.core.kernel.FleetKernel` structure-of-arrays simulation, and
``advance_all`` / ``values_array`` (lockstep or FIFO-driven) / ``submit`` /
``start_next`` become a handful of vectorized array passes.  :meth:`engine`
returns a read-only :class:`~repro.core.kernel.KernelEngineView` of one
row.  The fleet leaves the kernel only when told: a caller that mutates
an engine (a join's fork, a machine-pool change) calls
:meth:`~CoalitionFleet.materialize` first, and the fleet's own operations
the arrays cannot express (adopting an externally built engine,
``replace_engine``, ``remove_mask``, an unknown drive policy, a submit
past the int64 certification) do the same.  Materializing builds real
engines -- bit-identical state, same schedules -- and continues in
per-engine mode (several times slower, so the fallback is counted and
named: :attr:`CoalitionFleet.n_materializations`,
:attr:`~CoalitionFleet.materialize_reason`, :meth:`~CoalitionFleet.
backend_status`).  ``backend="engines"`` or ``backend="kernel"`` forces
either mode.

Exactness: the kernel keeps int64 ledgers, certified at construction and
guarded per query; when a query cannot be certified it falls back to exact
Python-int arithmetic over the same ledgers, so no scheduling decision is
ever affected by wraparound.  Property tests verify both modes agree.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import kernel as kernel_mod
from .coalition import iter_members
from .engine import ClusterEngine
from .kernel import (
    _QUERY_CAP,
    FleetKernel,
    KernelEngineView,
    KernelUnsafe,
    kernel_certified,
)
from .schedule import ScheduledJob
from .workload import Workload

__all__ = ["CoalitionFleet"]

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
        backend: str = "auto",
    ) -> None:
        if backend not in ("auto", "engines", "kernel"):
            raise ValueError("backend must be 'auto', 'engines' or 'kernel'")
        self.workload = workload
        self.horizon = horizon
        self._engines: dict[int, ClusterEngine] = {}
        self._order: list[int] = []
        self._mask_set: set[int] = set()
        #: union of the registered masks (which orgs have any coalition)
        self._covered = 0
        # kernel-backend state
        self._use_kernel = False
        self._kernel_obj: FleetKernel | None = None
        self._kernel_stale = False
        #: kernel -> per-engine fallbacks taken, and why the last one was:
        #: ``unsafe_submit``, ``adopt_engine``, ``add_mask`` (on a used
        #: kernel), ``remove_mask`` or ``unknown_drive`` from the fleet
        #: itself, or the reason a caller passed to :meth:`materialize`
        #: (the online service's ``join`` and ``pool_change``)
        self.n_materializations = 0
        self.materialize_reason: str | None = None
        self._built_on_engines: str | None = None  # see backend_status
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
            self._built_on_engines = "uncertified" if wants_kernel else (
                "requested" if backend == "engines" else "below_threshold"
            )
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
                self.workload, self._order, self.horizon
            )
            self._kernel_stale = False
        return self._kernel_obj

    def materialize(self, reason: str) -> None:
        """Leave the kernel: reconstruct every row as a real, bit-identical
        :class:`~repro.core.engine.ClusterEngine` and continue per-engine
        (a no-op on a per-engine fleet).  ``reason`` is recorded as
        :attr:`materialize_reason`; views taken before go stale."""
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

    def backend_status(self) -> dict:
        """Which backend serves this fleet, how often it fell back from the
        kernel, how many starts its log(s) hold, and (off the kernel) why:
        the last fallback's :attr:`materialize_reason`, else ``requested``,
        ``below_threshold`` or ``uncertified`` (JSON-friendly)."""
        if self._use_kernel:
            kern = self._kernel_obj
            stale = kern is None or self._kernel_stale
            entries = 0 if stale else kern.rec.log_len
        else:
            entries = sum(len(e._log) for e in self._engines.values())
        return {
            "backend": "kernel" if self._use_kernel else "engines",
            "materializations": self.n_materializations,
            "start_log_entries": int(entries),
            "reason": None if self._use_kernel else (
                self.materialize_reason or self._built_on_engines
            ),
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
        """The engine simulating coalition ``mask``: under the kernel
        backend a new read-only :class:`~repro.core.kernel.KernelEngineView`
        of its row (call :meth:`materialize` before mutating an engine)."""
        if self._use_kernel:
            if mask not in self._mask_set:
                raise KeyError(mask)
            return KernelEngineView(self, mask)
        return self._engines[mask]

    def add_mask(
        self, mask: int, engine: ClusterEngine | None = None
    ) -> ClusterEngine:
        """Register a coalition (idempotent) and return its engine.

        ``engine`` adopts an externally built engine (the online service
        constructs engines from its *dynamic* cluster state -- machines
        added at runtime, coalitions formed mid-stream -- which the fleet's
        frozen ``workload`` cannot describe) instead of simulating ``mask``
        over ``self.workload`` from time zero.
        """
        if mask in self._mask_set:
            return self.engine(mask)
        if mask <= 0:
            raise ValueError("coalition mask must be a nonzero bitmask")
        if self._constructing:
            # engine construction is deferred until the backend is chosen
            # at the end of __init__ (the kernel backend never builds them)
            if engine is not None:
                raise ValueError(
                    "cannot adopt an external engine at construction"
                )
            self._register(mask)
            return None  # unused during construction
        if self._use_kernel:
            kern = self._kernel_obj
            if engine is None and (kern is None or not kern._used):
                # pristine kernel: absorb the mask by (lazily) rebuilding
                self._register(mask)
                self._kernel_stale = True
                return self.engine(mask)
            self.materialize("add_mask" if engine is None else "adopt_engine")
        eng = (
            engine
            if engine is not None
            else ClusterEngine(
                self.workload, list(iter_members(mask)), horizon=self.horizon
            )
        )
        self._engines[mask] = eng
        self._register(mask)
        return eng

    def _register(self, mask: int) -> None:
        self._order.append(mask)
        self._mask_set.add(mask)
        self._covered |= mask

    def remove_mask(self, mask: int) -> ClusterEngine:
        """Deregister a coalition and return its (still valid) engine.

        The online service drops coalitions containing a departed
        organization; the remaining masks keep their registration order.
        """
        if mask not in self._mask_set:
            raise KeyError(f"mask {mask} is not registered")
        self.materialize("remove_mask")
        eng = self._engines.pop(mask)
        self._mask_set.discard(mask)
        self._order.remove(mask)
        self._covered = 0
        for m in self._order:
            self._covered |= m
        return eng

    def replace_engine(self, mask: int, engine: ClusterEngine) -> None:
        """Swap the engine simulating ``mask`` (same coalition, new object).

        The online service uses this to fork a coalition's engine at a
        membership epoch: the physical engine moves to the grown coalition
        while a deep copy continues the old mask's counterfactual; the
        next query reads its values from the new engine.
        """
        if mask not in self._mask_set:
            raise KeyError(f"mask {mask} is not registered")
        self.materialize("adopt_engine")
        self._engines[mask] = engine

    def submit(self, job) -> None:
        """Feed one job to every registered engine covering its owner
        (online ingestion; the batch path instead freezes streams at
        construction)."""
        bit = 1 << job.org
        if not self._covered & bit:
            raise ValueError(f"no registered coalition covers org {job.org}")
        if self._use_kernel:
            try:
                kern = self.kernel
                assert kern is not None
                kern.submit(job)
            except KernelUnsafe:
                self.materialize("unsafe_submit")
        if not self._use_kernel:
            for mask in self._order:
                if mask & bit:
                    self._engines[mask].submit(job)

    # ------------------------------------------------------------------
    # event iteration
    # ------------------------------------------------------------------
    def next_event_time(self) -> int | None:
        """The next decision time: the earliest release or completion still
        ahead in any coalition's simulation, or ``None`` when every one is
        exhausted or at/after the horizon."""
        if self._use_kernel:
            return self.kernel.next_event_time()
        times = [
            t
            for eng in self._engines.values()
            if (t := eng.next_event_time()) is not None
        ]
        return min(times, default=None)

    # ------------------------------------------------------------------
    # lockstep advancement
    # ------------------------------------------------------------------
    def advance_all(self, t: int) -> None:
        """Process every engine's events up to ``t`` (lockstep advance).

        Engines already past ``t`` are left where they are: a retrospective
        query reads them from their start logs.
        """
        if self._use_kernel:
            kern = self.kernel
            assert kern is not None
            if t >= kern.t:
                kern.advance(t)
            return
        self._sync(t, None)

    def _sync(self, t: int, select: SelectFn | None) -> None:
        """Bring every engine not already past ``t`` to ``t``: drive it with
        ``select`` first when given (its own greedy policy, RAND-style),
        then advance its clock to ``t``, so ``engine.value(t)`` is its O(1)
        ledger formula.  Horizon capping is not needed here: decision times
        already stop before the horizon, and processing a completion or
        release never changes psi_sp.
        """
        for mask in self._order:
            eng = self._engines[mask]
            if eng.t <= t:
                if select is not None:
                    eng.drive(select, until=t)
                eng.advance_to(t)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def start_next(
        self, mask: int, org: int, machine: int | None = None
    ) -> ScheduledJob:
        """Start ``org``'s FIFO-head job on coalition ``mask``'s cluster."""
        if self._use_kernel:
            kern = self.kernel
            assert kern is not None
            return kern.start_row(kern._row[mask], org, machine)
        return self._engines[mask].start_next(org, machine=machine)

    # ------------------------------------------------------------------
    # batched coalition values
    # ------------------------------------------------------------------
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
            self.materialize("unknown_drive")
            return None
        return kern

    def _engine_values(self, t: int, select: SelectFn | None) -> list[int]:
        """Every engine's exact value at ``t``, in :attr:`masks` order."""
        self._sync(t, select)
        return [self._engines[m].value(t) for m in self._order]

    def values_array(
        self, t: int, *, select: SelectFn | None = None
    ) -> "np.ndarray | None":
        """Coalition values at ``t`` as an int64 array aligned with
        :attr:`masks`, or ``None`` when they do not fit (use
        :meth:`values_at`, which is exact at any ``t``): the kernel's
        per-query guard tripped, or some engine value reached ``2**62``.

        Every engine is brought to ``t`` first: driven by ``select`` when
        given (its own greedy policy, RAND-style), otherwise advanced in
        lockstep.  Engines already *past* ``t`` (retrospective queries) are
        valued from their start logs.
        """
        kern = self._kernel_sync(t, select) if self._use_kernel else None
        if kern is not None:
            return kern.values_retro(t) if t < kern.t else kern.values_i64(t)
        vals = self._engine_values(t, select)
        if max(vals, default=0) >= _QUERY_CAP:
            return None
        return np.array(vals, dtype=np.int64)

    def values_at(
        self, t: int, *, select: SelectFn | None = None
    ) -> dict[int, int]:
        """Coalition values ``{mask: v(C', t)}`` for every registered mask,
        plus the empty coalition ``{0: 0}`` -- exactly the table the REF
        recursion's ``UpdateVals`` consumes.  Exact at any ``t``."""
        kern = self._kernel_sync(t, select) if self._use_kernel else None
        if kern is None:
            row_values = self._engine_values(t, select)
        elif t < kern.t:
            row_values = kern.values_retro(t).tolist()
        else:
            arr = kern.values_i64(t)
            # guard tripped: exact Python-int formula over the (certified
            # exact) int64 ledgers
            row_values = kern.values_exact(t) if arr is None else arr.tolist()
        values: dict[int, int] = {0: 0}
        values.update(zip(self._order, row_values))
        return values
