"""RAND: the randomized sampled-coalition fair scheduler (paper Fig. 6).

RAND replaces REF's exhaustive subcoalition recursion with Monte-Carlo
sampling of joining orders: ``N`` random permutations of the organizations
are drawn up-front (``Prepare``); for each permutation and each organization
``u`` the pair of prefix coalitions ``(pred(u), pred(u) + {u})`` is recorded,
and ``u``'s contribution is estimated as the average value difference over
its ``N`` sampled pairs.  Scheduling then follows the same
``argmax(phi - psi)`` rule as REF (Fig. 3).

For **unit-size jobs** this is an FPRAS (Theorems 5.6-5.7): coalition values
are independent of the scheduling policy (Prop. 5.4), so tracking each
sampled coalition with *any* greedy schedule is exact, and with

``N = ceil(k^2 / eps^2 * ln(k / (1 - lambda)))``

samples the utility vector is, with probability ``lambda``, within
``eps * v*`` of the truly fair one in the Manhattan norm.  For general job
sizes the same machinery is the paper's strong heuristic (Tables 1-2 run it
with N = 15 and N = 75).

Implementation notes: the sampled prefix coalitions
(:class:`~repro.shapley.sampling.SampledPrefixes`, de-duplicated) live in a
:class:`~repro.core.fleet.CoalitionFleet` serving as a pure value oracle --
each engine runs its own greedy FIFO schedule, driven lazily to the grand
coalition's *contested* decision times (two or more organizations wait;
at a forced one the single waiting organization wins whatever the
estimates say), and values are read batched from the fleet's
vectorized ψ_sp ledger.  A second fleet-of-one carries the actual RAND
schedule through the shared decision loop.  Contribution estimates are
compared as exact integers scaled by ``N``
(``sum of sampled marginals - N * psi``).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..core.fleet import CoalitionFleet
from ..core.workload import Workload
from ..shapley.sampling import (
    ORDERING_SAMPLERS,
    SampledPrefixes,
    hoeffding_samples,
    sample_member_orderings,
)
from .base import (
    Scheduler,
    SchedulerResult,
    drive_fleet,
    fill_capacity,
    members_mask,
)
from .greedy import fifo_select

__all__ = ["RandScheduler", "RandRun"]


class RandRun:
    """One RAND run's state plus its per-event body (paper Fig. 6).

    ``Prepare`` happens at construction: ``N`` joining orders are drawn
    from ``rng`` and the de-duplicated prefix coalitions become the value
    *oracle* fleet (each engine driven by its own greedy FIFO schedule).
    The actual RAND schedule lives on the *carrier* fleet's grand engine.

    Like :class:`~repro.algorithms.ref.RefRun`, construction runs nothing:
    the batch path calls :meth:`drive`, the online service calls
    :meth:`step` per decision time.  ``oracle_factory`` / ``fleet`` let the
    online service own the fleets: the factory receives the sampled masks
    (known only once the orderings are drawn) and must return a fleet
    containing exactly those coalitions, built from dynamic cluster state.
    """

    def __init__(
        self,
        workload: Workload,
        members_t: tuple[int, ...],
        grand_mask: int,
        n_orderings: int,
        rng: np.random.Generator,
        horizon: int | None,
        *,
        oracle_factory: "Callable[[list[int]], CoalitionFleet] | None" = None,
        fleet: CoalitionFleet | None = None,
        sampler: "str | Callable | None" = None,
    ) -> None:
        self.members_t = members_t
        self.grand_mask = grand_mask
        self.n_orderings = n_orderings
        member_arr = np.array(members_t, dtype=np.int64)
        # the default draw stays the historical one-permutation-per-row
        # stream (bit-compatible with every pinned transcript); named
        # samplers (see ORDERING_SAMPLERS) plug in variance-reduced draws
        draw = (
            ORDERING_SAMPLERS[sampler]
            if isinstance(sampler, str)
            else (sampler or sample_member_orderings)
        )
        orderings = draw(member_arr, n_orderings, rng)
        self.prefixes = SampledPrefixes(workload.n_orgs, orderings)
        self.sampled = sorted(m for m in self.prefixes.masks if m)
        self._sampled_t = tuple(self.sampled)
        self.oracle = (
            oracle_factory(self.sampled)
            if oracle_factory is not None
            else CoalitionFleet(workload, self.sampled, horizon=horizon)
        )
        self.fleet = (
            fleet
            if fleet is not None
            else CoalitionFleet(workload, (grand_mask,), horizon=horizon)
        )
        #: capable decision events by kind: ``forced`` (one organization
        #: waits; the oracle is not valued) and ``contested`` (valued)
        self.rand_events = {"forced": 0, "contested": 0}

    @property
    def grand(self):
        """The carrier's grand engine, asked for afresh: a held kernel
        view goes stale when a pool change materializes the carrier."""
        return self.fleet.engine(self.grand_mask)

    @property
    def oracles(self) -> "tuple[CoalitionFleet, ...]":
        """Every oracle fleet (the online adapter feeds and drives them)."""
        return (self.oracle,)

    def note_job(self, job) -> None:
        """Online ingest hook: the oracle is RAND's only estimate input."""

    def note_machines(self, machines: "dict[int, int]") -> None:
        """Online pool hook: the oracle is RAND's only estimate input."""

    def carry(self, prev: "RandRun") -> None:
        """Continue ``prev``'s event counts in this membership epoch."""
        self.rand_events = prev.rand_events

    def counters(self) -> dict:
        """What an online service reports in ``policy_backend``."""
        return {"rand_events": dict(self.rand_events)}

    def drive(self) -> int:
        """Run the carrier's decision loop to exhaustion / the horizon."""
        return drive_fleet(self.fleet, self._on_event)

    def step(self, t: int) -> None:
        """Process one decision time (the online service's entry point)."""
        self._on_event(self.fleet, t)

    def _on_event(self, fleet: CoalitionFleet, t: int) -> None:
        fleet.advance_all(t)
        grand = self.grand
        if grand.free_count == 0 or not grand.has_waiting():
            # keep the oracle engines lazily behind; they are only
            # needed at contested decision times
            return
        waiting = grand.waiting_orgs()
        if len(waiting) == 1:
            # forced: fair_select ignores the keys of a lone waiting
            # organization, so the oracle stays behind here too (its
            # engines run their own greedy FIFO: driving them later is
            # exact)
            self.rand_events["forced"] += 1
            keys = {waiting[0]: 0}
        else:
            self.rand_events["contested"] += 1
            keys = self.keys(t)
        fill_capacity(fleet, self.grand_mask, keys)

    def keys(self, t: int) -> dict[int, int]:
        """Every member's ``phi - psi`` at ``t``, scaled by ``N`` (exact
        integers), driving the oracle to ``t``."""
        phi_scaled, _, _ = self.prefixes.estimate_scaled_at(
            self.oracle, self._sampled_t, t, fifo_select
        )
        psis = self.grand.psis(t)
        return {
            u: phi_scaled[u] - self.n_orderings * psis[u]
            for u in self.members_t
        }


class RandScheduler(Scheduler):
    """Algorithm RAND (Fig. 6) with ``N`` sampled joining orders.

    Parameters
    ----------
    n_orderings:
        The paper's N; Tables 1-2 use 15 (and 75 in Section 7.1's setup).
    seed:
        Seed (or :class:`numpy.random.Generator`) for the permutation draws;
        runs are deterministic given a seed.
    horizon:
        Optional stop time.
    epsilon, delta:
        When ``epsilon > 0`` the budget is the Theorem 5.6 Hoeffding
        choice ``N = ceil(k^2/eps^2 * ln(k/delta))`` resolved at run time
        from the *actual* member count (``delta`` is the failure
        probability, the paper's ``1 - lambda``); ``n_orderings`` is then
        ignored.  No silent cap is applied -- small ``epsilon`` at large
        ``k`` asks for exactly what the theorem demands.
    n_samples:
        Explicit budget override; beats both ``epsilon`` and
        ``n_orderings`` when positive.
    sampler:
        Ordering sampler name (:data:`~repro.shapley.sampling.
        ORDERING_SAMPLERS`) or callable; ``None`` keeps the historical
        uniform draw stream.
    """

    name = "Rand"

    def __init__(
        self,
        n_orderings: int = 15,
        seed: "int | np.random.Generator | None" = 0,
        horizon: int | None = None,
        *,
        epsilon: float = 0.0,
        delta: float = 0.05,
        n_samples: int = 0,
        sampler: "str | Callable | None" = None,
        name: "str | None" = None,
    ):
        if n_orderings < 1:
            raise ValueError("need at least one sampled ordering")
        if epsilon < 0 or n_samples < 0:
            raise ValueError("epsilon and n_samples must be >= 0")
        if epsilon and not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self.n_orderings = n_orderings
        self.horizon = horizon
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.n_samples = int(n_samples)
        self.sampler = sampler
        self._seed = seed
        if name is not None:
            self.name = name
        elif self.n_samples:
            self.name = f"Rand(N={self.n_samples})"
        elif self.epsilon:
            self.name = f"Rand(eps={self.epsilon:g},delta={self.delta:g})"
        else:
            self.name = f"Rand(N={n_orderings})"

    @classmethod
    def from_bounds(
        cls,
        k: int,
        epsilon: float,
        lam: float,
        seed: "int | np.random.Generator | None" = 0,
        horizon: int | None = None,
    ) -> "RandScheduler":
        """FPRAS constructor: choose N from the Theorem 5.6 Hoeffding bound."""
        return cls(hoeffding_samples(k, epsilon, lam), seed, horizon)

    def resolve_budget(self, k: int) -> int:
        """The actual N for a ``k``-member run: explicit ``n_samples``,
        else the Theorem 5.6 choice when ``epsilon`` is set, else the
        fixed ``n_orderings``."""
        if self.n_samples:
            return self.n_samples
        if self.epsilon:
            return hoeffding_samples(k, self.epsilon, 1.0 - self.delta)
        return self.n_orderings

    def make_run(
        self,
        workload: Workload,
        members_t: tuple[int, ...],
        grand_mask: int,
        rng: np.random.Generator,
        *,
        oracle_factory: "Callable[[list[int]], CoalitionFleet] | None" = None,
        fleet: CoalitionFleet | None = None,
    ) -> RandRun:
        """One run over ``members_t`` with this scheduler's budget (resolved
        for their count), sampler and horizon; the batch path and the
        online service's adapter both make their runs here
        (``oracle_factory`` / ``fleet`` as in :class:`RandRun`)."""
        return RandRun(
            workload,
            members_t,
            grand_mask,
            self.resolve_budget(len(members_t)),
            rng,
            self.horizon,
            oracle_factory=oracle_factory,
            fleet=fleet,
            sampler=self.sampler,
        )

    def run(
        self, workload: Workload, members: Iterable[int] | None = None
    ) -> SchedulerResult:
        """Build the sampled-contribution fair schedule for ``members``."""
        members_t, grand_mask = members_mask(workload, members)
        run = self.make_run(
            workload, members_t, grand_mask, np.random.default_rng(self._seed)
        )
        run.drive()
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=members_t,
            schedule=run.grand.schedule(),
            horizon=self.horizon,
            meta={
                "n_orderings": run.n_orderings,
                "n_coalitions": len(run.sampled),
            },
        )
