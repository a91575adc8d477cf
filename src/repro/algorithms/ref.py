"""REF: the exact (exponential) Shapley-fair scheduling algorithm.

This implements the paper's Algorithm REF (Fig. 1) with the ψ_sp fast path
of Fig. 3.  REF is the *referral* fair algorithm of Definition 3.2: at every
time moment, for every subcoalition (recursively), it schedules the job of
the organization minimizing the distance between the utility vector and the
Shapley contribution vector.

Mechanics (per event time ``t``, matching Fig. 1):

1. every subcoalition's engine is advanced to ``t`` (releases/completions);
2. coalition values ``v[C'] = sum_u psi_sp`` are computed at ``t`` -- note a
   job started *at* ``t`` has zero executed parts, so time-``t`` decisions
   cannot change time-``t`` values and the size-ordered processing of
   Fig. 1 is well-defined;
3. for each coalition with a free machine and waiting jobs, ``UpdateVals``
   computes every member's Shapley contribution from the subcoalition
   values (the Eq. 1 subset sum with factorial weights);
4. while capacity remains, the member maximizing ``phi - psi`` starts its
   FIFO-head job (Fig. 3's ``SelectAndSchedule``; ties broken by the lowest
   organization id).

Exactness: contributions are held as integers scaled by ``|C|!``
(:func:`repro.core.coalition.scaled_shapley_weights`), and ψ_sp values are
integers, so the comparison ``phi - psi`` is exact -- no floating-point tie
ambiguity can flip a fairness decision.

Complexity per event: ``O(k·3^k)`` for contributions plus ``O(2^k)`` engine
advances -- Prop. 3.4's FPT bound (Cor. 3.5).  Use for small k (the paper
runs k <= 10; REF is the fairness *benchmark* other algorithms are measured
against).  Both costs run vectorized: subcoalition simulation and batched
values live in :class:`repro.core.fleet.CoalitionFleet`, and ``UpdateVals``
is a cached coefficient-matrix product
(:class:`repro.shapley.vectorized.ScaledShapleySolver`) with
:func:`repro.shapley.exact.shapley_exact_scaled` (the package's one Eq. 1
loop) as the exact big-int fallback and reference.

The loop is stated twice, and only twice (DESIGN.md §2.5):
:func:`fused_round`, the array body over a structure-of-arrays kernel
(tried first on a kernel-backed fleet by :meth:`RefRun._on_event_kernel`,
and the whole of the batched sweep, :mod:`repro.algorithms.multiref`), and
:meth:`RefRun._on_event`, the per-coalition body that serves every other
fleet and is the one fallback for whatever the array body declines.

The general-utility variant of Fig. 1 (arbitrary ψ, explicit ``Distance``)
is :class:`GeneralRefScheduler`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable

import numpy as np

from ..core.coalition import iter_members, popcount, subsets_by_size
from ..core.engine import ClusterEngine
from ..core.fleet import CoalitionFleet
from ..core.workload import Workload
from ..shapley.exact import shapley_exact_scaled
from ..shapley.vectorized import ScaledShapleySolver
from ..utility.base import UtilityFunction
from ..utility.strategyproof import StrategyProofUtility
from .base import (
    Scheduler,
    SchedulerResult,
    drive_fleet,
    fill_capacity,
    members_mask,
)

__all__ = ["RefScheduler", "GeneralRefScheduler", "RefRun"]

#: Coalition size from which REF uses the numpy value/contribution path;
#: below it the per-event array overhead exceeds the Python loops it
#: replaces (PR 16's sweep: array-only is 1.35-1.55x slower at k<=4
#: batch, dict-only 3.6x slower at k=8 off the kernel; the dispatch
#: itself is guarded by ``benchmarks/bench_smallk.py``).
VECTORIZE_MIN_K = 5

#: The fused round's int64 caps on ``|phi|`` and on a key ``|phi| +
#: |C|!·|psi|``, checked per round (:func:`fused_round`) and, statically on
#: an instance's certified bound, by ``multiref.batchable``.
PHI_CAP = 1 << 62
KEY_CAP = 1 << 63


@lru_cache(maxsize=4)
def _solver_for(masks: "tuple[int, ...]") -> ScaledShapleySolver:
    """One :class:`ScaledShapleySolver` per coalition layout, shared across
    runs (its cached coefficient plans depend only on the mask order)."""
    return ScaledShapleySolver({m: i for i, m in enumerate(masks)})


def fused_plan(solver: ScaledShapleySolver, groups, row_of, row0):
    """:func:`fused_round`'s plan over kernel instances sharing one row
    layout (``row_of[mask]``: a row of one instance; instance ``i``'s rows
    start at ``row0[i]``): per size group the stacked ``UpdateVals``
    coefficients, value-row gather, phi scatter rows and columns; each
    row's ``|C|!`` and group; the two int64 guard coefficients (largest
    coefficient row weight, largest ``|C|!``)."""
    n_rows = len(row_of)
    facts = np.zeros((n_rows, 1), dtype=np.int64)
    group_of = np.zeros(n_rows, dtype=np.intp)
    lift = np.asarray(row0, dtype=np.intp)[:, None, None]
    plans = []
    max_rw, max_fact = 0, 1
    for g, group in enumerate(groups):
        coef, vrows, cols, rw = solver.matrix_plan(group)
        krows = np.array([row_of[m] for m in group], dtype=np.intp)
        fact = factorial(popcount(group[0]))
        facts[krows, 0] = fact
        group_of[krows] = g
        plans.append((coef, vrows + lift, krows[:, None] + lift, cols))
        max_rw = max(max_rw, rw)
        max_fact = max(max_fact, fact)
    B = len(row0)
    facts, group_of = np.tile(facts, (B, 1)), np.tile(group_of, B)
    return plans, facts, group_of, max_rw, max_fact


def fused_round(kern, plan, seen: dict) -> bool:
    """Fig. 1's per-event body fused over a structure-of-arrays kernel at
    every instance's clock (``plan``: :func:`fused_plan` over its rows):
    one batched scheduling pass, with Shapley only where there is a choice.
    A capable row with a single waiting organization has a forced start
    (``argmax`` over one candidate ignores the key, and a row's waiting set
    only shrinks within an event), so a round whose capable rows are all
    forced schedules with no key work.  Otherwise: one psi-ledger
    evaluation (coalition values are its row sums), one global int64
    guard, one dense ``UpdateVals`` matmul per size group *holding a
    contested row* scattered into a single ``(rows, orgs)`` phi matrix --
    bit-identical decisions to the per-coalition body.  Returns ``False``,
    *before any start*, for a round whose int64 arithmetic it cannot
    certify.  ``seen`` counts each outcome: ``forced``, ``contested``, and
    the declines ``unsafe`` and ``guard``."""
    if not kern._query_safe(kern.clocks.tolist()):
        seen["unsafe"] += 1
        return False
    # waiting organizations per row, zero where no machine is free
    rec = kern.rec
    n_wait = (rec.started < kern.released.take(kern.row_inst, 0)).sum(axis=1)
    n_wait[rec.free_count <= 0] = 0
    rows = np.flatnonzero(n_wait)
    if not rows.size:
        return True
    contested = n_wait > 1
    if not contested.any():
        seen["forced"] += 1
        kern.fill_rows(rows, None)
        return True
    plans, facts, group_of, max_rw, max_fact = plan
    psis = kern.psis()
    # per-cell psi numerators are even (s·(s-2t-1) is always even), so
    # the cellwise //2 loses nothing and row sums are exactly the
    # coalition values (values_i64 is this sum)
    vals = psis.sum(axis=1)
    max_abs = int(np.abs(vals).max())
    psis_absmax = int(np.abs(psis).max())
    # one conservative guard for every group's |phi| + |C|!·|psi|
    if (
        max_rw * max_abs >= PHI_CAP
        or max_rw * max_abs + max_fact * psis_absmax >= KEY_CAP
    ):
        seen["guard"] += 1
        return False
    seen["contested"] += 1
    # a skipped group's rows keep phi = 0: all forced, keys never compared
    phi_full = np.zeros((kern.n, kern.k), dtype=np.int64)
    # bincount, not np.unique: the groups are few small ints, and unique
    # imports numpy.ma (~1 MB) on first use
    for g in np.flatnonzero(np.bincount(group_of[contested])).tolist():
        coef, vrows, krows, cols = plans[g]
        phi_full[krows, cols] = np.matmul(coef, vals[vrows][..., None])[..., 0]
    keys = phi_full - facts * psis
    kern.fill_rows(rows, keys[rows])
    return True


class RefRun:
    """One REF recursion: a :class:`CoalitionFleet` of engines for every
    nonempty subcoalition plus the per-event Fig. 1 body.  Exposes the
    grand engine and contribution state.

    Construction no longer runs anything: the batch path calls
    :meth:`drive` (run to the horizon through the shared decision loop),
    while the online service steps the same per-event body one decision
    time at a time (:meth:`step`) as events stream in.  ``fleet`` injects
    an externally owned fleet (the service builds engines from dynamic
    cluster state); it must cover every nonempty submask of
    ``grand_mask``.
    """

    def __init__(
        self,
        workload: Workload,
        members_t: tuple[int, ...],
        grand_mask: int,
        horizon: int | None,
        *,
        fleet: CoalitionFleet | None = None,
    ) -> None:
        self.workload = workload
        self.members_t = members_t
        self.grand_mask = grand_mask
        self.horizon = horizon
        # nonempty subcoalitions by ascending size (Fig. 1's processing
        # order), as stable tuples: the solver caches its stacked
        # coefficient plans per tuple
        self._groups = [tuple(g) for g in subsets_by_size(grand_mask)[1:]]
        self.nonempty = [m for group in self._groups for m in group]
        self.fleet = (
            fleet
            if fleet is not None
            else CoalitionFleet(workload, self.nonempty, horizon=horizon)
        )
        self._vectorize = popcount(grand_mask) >= VECTORIZE_MIN_K
        # the coefficient-matrix solver only serves the numpy path; below
        # the dispatch threshold its construction would be pure overhead.
        # Coefficients are pure combinatorics (independent of the workload),
        # so solvers are shared across runs with the same coalition layout.
        self.solver = (
            _solver_for(tuple(self.fleet.masks)) if self._vectorize else None
        )
        self.last_event: int = 0
        self._kernel_plan_cache: "tuple | None" = None
        #: what the fused array body did with each event that reached it:
        #: scheduled (every start forced / by Shapley keys) or declined
        #: (uncertifiable query, int64 guard); plus the events served on a
        #: fleet with no kernel
        self.ref_events = dict.fromkeys(
            ("forced", "contested", "unsafe", "guard", "engines"), 0
        )

    def drive(self) -> int:
        """Run the shared decision loop to exhaustion / the horizon and
        return the last processed event time (the batch entry point)."""
        self.last_event = drive_fleet(self.fleet, self._on_event)
        return self.last_event

    def step(self, t: int) -> None:
        """Process one decision time (the online service's entry point):
        advance every subcoalition, recompute contributions, schedule."""
        self.last_event = t
        self._on_event(self.fleet, t)

    def _on_event(self, fleet: CoalitionFleet, t: int) -> None:
        """Fig. 1's per-event body.  A kernel-backed fleet is served by the
        fused array body; whatever that body declines, and every per-engine
        fleet, takes the per-coalition body below: batched values, then
        size-ordered ``UpdateVals`` + Fig. 3 scheduling for every capable
        coalition (engine views make it backend-agnostic)."""
        if fleet.kernel is None:
            self.ref_events["engines"] += 1
        elif self._vectorize and self._on_event_kernel(fleet, t):
            return
        vals = None
        max_abs = 0
        if self._vectorize:
            vals = fleet.values_array(t)
            if vals is not None and len(vals):
                max_abs = int(np.abs(vals).max())
        else:
            fleet.advance_all(t)
        # exact values are computed lazily, once, at the first capable
        # coalition: a decision time with no free-machine/waiting-job pair
        # anywhere (a pure release or completion) costs no value query
        values_dict: dict[int, int] | None = None
        for group in self._groups:
            # a coalition's starts at t touch only its own engine and cannot
            # change any value at t (a job started at t has executed no
            # parts), so capability and contributions for the whole size
            # group are fixed before any of its coalitions schedules
            capable = [
                (i, m)
                for i, m in enumerate(group)
                if (eng := fleet.engine(m)).free_count > 0
                and eng.has_waiting()
            ]
            if not capable:
                continue
            if vals is None and values_dict is None:
                values_dict = fleet.values_at(t)
            phi = (
                self.solver.phi_scaled_matrix(
                    group, vals, max_abs, self.workload.n_orgs
                )
                if vals is not None
                else None
            )
            phi_rows = phi.tolist() if phi is not None else None
            for i, m in capable:
                if phi_rows is not None:
                    phi_scaled, fact = phi_rows[i], factorial(popcount(m))
                else:  # small k, or the int64 guard tripped: exact path
                    if values_dict is None:
                        # the batch guard tripped but the (exact) values are
                        # already in hand -- no need to re-query the fleet
                        values_dict = {0: 0}
                        values_dict.update(zip(fleet.masks, vals.tolist()))
                    phi_scaled, fact = shapley_exact_scaled(
                        values_dict, self.workload.n_orgs, grand=m
                    )
                psis = fleet.engine(m).psis(t)
                keys = {
                    u: phi_scaled[u] - fact * psis[u]
                    for u in iter_members(m)
                }
                fill_capacity(fleet, m, keys)

    def _kernel_plan(self, kern):
        """:func:`fused_plan` over the kernel's rows (cached per kernel
        object)."""
        cached = self._kernel_plan_cache
        if cached is not None and cached[0] is kern:
            return cached[1]
        plan = fused_plan(self.solver, self._groups, kern._row, kern.row0)
        self._kernel_plan_cache = (kern, plan)
        return plan

    def _on_event_kernel(self, fleet: CoalitionFleet, t: int) -> bool:
        """Fig. 1's per-event body on a kernel-backed fleet: one lockstep
        advance and one :func:`fused_round`.  Returns ``False``, *before
        any start*, when the round declines the event; the caller then runs
        the per-coalition body, which carries the exact big-int fallback.
        A ``t`` behind the kernel's clock raises
        (:meth:`~repro.core.kernel.FleetKernel.advance`)."""
        kern = fleet.kernel
        kern.advance(t)
        return fused_round(kern, self._kernel_plan(kern), self.ref_events)

    def values_at(self, t: int) -> dict[int, int]:
        """Coalition values at ``t`` (all engines advanced at least to ``t``)."""
        return self.fleet.values_at(t)

    def engine(self, mask: int):
        return self.fleet.engine(mask)

    def contributions_at(self, t: int) -> list[Fraction]:
        """Exact Shapley contributions φ(u) of the grand coalition at ``t``."""
        phi_scaled, denom = shapley_exact_scaled(
            self.values_at(t), self.workload.n_orgs, grand=self.grand_mask
        )
        return [Fraction(p, denom) for p in phi_scaled]


class RefScheduler(Scheduler):
    """Algorithm REF with the strategy-proof utility (Figs. 1 + 3).

    Parameters
    ----------
    horizon:
        Optional stop time (events at/after it are not processed; utilities
        evaluated at the horizon are unaffected).
    collect_contributions:
        When True, ``result.meta["contributions"]`` holds the exact
        grand-coalition Shapley contribution vector (Fractions) at the
        horizon (or at the last event when no horizon was given).
    """

    name = "REF"

    def __init__(
        self, horizon: int | None = None, *, collect_contributions: bool = False
    ):
        self.horizon = horizon
        self.collect_contributions = collect_contributions

    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        """Build the exact fair schedule for the coalition ``members``."""
        members_t, grand_mask = members_mask(workload, members)
        run = RefRun(workload, members_t, grand_mask, self.horizon)
        run.drive()
        meta: dict = {}
        if self.collect_contributions:
            t_eval = (
                self.horizon
                if self.horizon is not None
                else max(run.last_event, run.engine(grand_mask).t)
            )
            meta["contributions"] = run.contributions_at(t_eval)
            meta["contributions_time"] = t_eval
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=members_t,
            schedule=run.engine(grand_mask).schedule(),
            horizon=self.horizon,
            meta=meta,
        )

    def contributions_at(
        self,
        workload: Workload,
        t: int,
        members: Iterable[int] | None = None,
    ) -> list[Fraction]:
        """Exact grand-coalition Shapley contributions φ(u) at time ``t``.

        Runs the full REF recursion to ``t`` and applies Eq. 1 to the
        resulting coalition values -- the "ideally fair" division of
        ``v(C, t)`` that the REF schedule chases (Definition 3.1).
        """
        members_t, grand_mask = members_mask(workload, members)
        run = RefRun(workload, members_t, grand_mask, horizon=t)
        run.drive()
        return run.contributions_at(t)


class GeneralRefScheduler(Scheduler):
    """Algorithm REF for an *arbitrary* utility function (Fig. 1).

    Uses the explicit ``Distance`` selection rule.  Because every utility in
    this model is non-clairvoyant, a job started at ``t`` has executed no
    parts at ``t`` and the literal pseudo-code's
    ``Delta-psi = psi(new, t) - psi(old, t)`` is identically zero; we
    therefore evaluate the tentative insertion one step ahead (at ``t+1``,
    when exactly one unit of the new job -- the only part knowable without
    clairvoyance -- has executed).  With ψ_sp this reduces to Fig. 3's
    argmax(φ−ψ) rule up to plateau ties, which we break by argmax(φ−ψ) and
    then the organization id, keeping the two variants consistent (verified
    in tests).
    """

    name = "REF-general"

    def __init__(
        self,
        utility: UtilityFunction | None = None,
        horizon: int | None = None,
    ):
        self.utility = utility or StrategyProofUtility()
        self.horizon = horizon

    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        members_t, grand_mask = members_mask(workload, members)
        util = self.utility
        size_groups = subsets_by_size(grand_mask)
        nonempty = [m for group in size_groups[1:] for m in group]
        fleet = CoalitionFleet(workload, nonempty, horizon=self.horizon)
        # per-coalition per-org started-job (start, size) pairs; the fleet's
        # psi_sp ledger cannot serve an arbitrary utility, so values come
        # from ``util`` over these pairs (exact Fractions)
        pairs: dict[int, dict[int, list[tuple[int, int]]]] = {
            m: {u: [] for u in iter_members(m)} for m in nonempty
        }

        def on_event(fleet: CoalitionFleet, t: int) -> None:
            fleet.advance_all(t)
            psi_tab = {
                m: {
                    u: Fraction(util.value(pairs[m][u], t))
                    for u in iter_members(m)
                }
                for m in nonempty
            }
            values: dict[int, Fraction] = {0: Fraction(0)}
            for m in nonempty:
                values[m] = sum(psi_tab[m].values(), Fraction(0))
            for group in size_groups[1:]:
                for m in group:
                    eng = fleet.engine(m)
                    if eng.free_count == 0 or not eng.has_waiting():
                        continue
                    size = popcount(m)
                    phi_scaled, denom = shapley_exact_scaled(
                        values, workload.n_orgs, grand=m
                    )
                    phi = {
                        u: Fraction(phi_scaled[u], denom)
                        for u in iter_members(m)
                    }
                    while eng.free_count > 0 and eng.has_waiting():
                        u = self._select_distance(
                            eng, util, pairs[m], phi, psi_tab[m], t, size
                        )
                        entry = fleet.start_next(m, u)
                        pairs[m][u].append(entry.pair())

        drive_fleet(fleet, on_event)
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=members_t,
            schedule=fleet.engine(grand_mask).schedule(),
            horizon=self.horizon,
            meta={"utility": util.name},
        )

    @staticmethod
    def _select_distance(
        eng: ClusterEngine,
        util: UtilityFunction,
        org_pairs: dict[int, list[tuple[int, int]]],
        phi: dict[int, Fraction],
        psi: dict[int, Fraction],
        t: int,
        size: int,
    ) -> int:
        """Fig. 1's ``Distance``: tentatively schedule each candidate's head
        job and pick the one minimizing the Manhattan distance between the
        updated contribution and utility vectors."""
        waiting = eng.waiting_orgs()
        best_u = waiting[0]
        best_key: tuple[Fraction, Fraction, int] | None = None
        for u in waiting:
            # one knowable unit of the tentative job, evaluated at t+1
            tentative = [*org_pairs[u], (t, 1)]
            delta = Fraction(util.value(tentative, t + 1)) - Fraction(
                util.value(org_pairs[u], t + 1)
            )
            share = delta / size
            dist = abs(phi[u] + share - psi[u] - delta)
            for w in phi:
                if w != u:
                    dist += abs(phi[w] + share - psi[w])
            key = (dist, -(phi[u] - psi[u]), u)
            if best_key is None or key < best_key:
                best_key = key
                best_u = u
        return best_u
