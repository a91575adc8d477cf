"""Characteristic-function games, including the paper's scheduling game.

In the paper's game (Section 2) the players are organizations; the value of
a coalition :math:`\\mathcal{C}` at time ``t`` is the total strategy-proof
utility of the schedule the coalition runs on its pooled machines:
:math:`v(\\mathcal{C}, t) = \\sum_{u \\in \\mathcal{C}} \\psi_{sp}`.

Unlike textbook games, the value depends on the *scheduling algorithm*.
Definition 3.1 resolves this recursively: subcoalition values come from a
fair algorithm for that subcoalition.  Two backends are provided:

* ``policy="fifo"`` -- any greedy algorithm; exactly correct for unit-size
  jobs (Prop. 5.4: all greedy algorithms give equal coalition values), the
  heuristic the paper itself uses inside RAND for general sizes;
* ``policy="fair"`` -- the full recursive REF fair schedule per coalition
  (exponential; the reference semantics of Definition 3.1).

The unit-size fast path computes all coalition values with a vectorized
Lindley (queue) recursion instead of event simulation.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..core.coalition import iter_members, iter_subsets
from ..core.fleet import CoalitionFleet
from ..core.workload import Workload

__all__ = [
    "TableGame",
    "SchedulingGame",
    "unit_coalition_value",
]


class TableGame:
    """A characteristic function backed by an explicit table.

    Convenience wrapper for tests and the Shapley playground example;
    validates that the table covers every subset of the grand coalition.
    """

    def __init__(self, k: int, table: Mapping[int, "int | float"]):
        self.k = k
        grand = (1 << k) - 1
        missing = [m for m in iter_subsets(grand) if m not in table]
        if missing:
            raise ValueError(f"table misses {len(missing)} coalitions")
        self.table = dict(table)

    def __call__(self, mask: int) -> "int | float":
        return self.table[mask]


class SchedulingGame:
    """The scheduling cooperative game: ``v(mask) = v(C, t)``.

    Parameters
    ----------
    workload:
        The instance (organizations with machines, and their jobs).
    t:
        Evaluation time for coalition values.
    policy:
        ``"fifo"`` (any greedy; cheap) or ``"fair"`` (recursive REF;
        exponential but the exact Definition 3.1 semantics).

    Values are cached per coalition; with ``policy="fifo"`` and unit-size
    jobs the vectorized Lindley backend is used automatically, and general
    sizes are simulated on a transient
    :class:`~repro.core.fleet.CoalitionFleet` so :meth:`values_for` reads a
    whole batch of fresh coalitions from one fleet query (only the integer
    values are retained -- engines are discarded once cached).
    """

    def __init__(self, workload: Workload, t: int, policy: str = "fifo"):
        if policy not in ("fifo", "fair"):
            raise ValueError("policy must be 'fifo' or 'fair'")
        self.workload = workload
        self.t = t
        self.policy = policy
        self.k = workload.n_orgs
        self._cache: dict[int, int] = {0: 0}
        self._unit_sizes = all(j.size == 1 for j in workload.jobs)

    def __call__(self, mask: int) -> int:
        if mask not in self._cache:
            self._cache[mask] = self._compute(mask)
        return self._cache[mask]

    def _fifo_values(self, masks: "list[int]") -> dict[int, int]:
        """Engine-backed fifo values for ``masks`` via a transient fleet
        (the kernel drives greedy FIFO natively, so a large batch advances
        in one vectorized lockstep sweep)."""
        # lazy: repro.algorithms imports repro.shapley
        from ..algorithms.greedy import fifo_select

        fleet = CoalitionFleet(self.workload, masks, horizon=self.t)
        return fleet.values_at(self.t, select=fifo_select)

    def _compute(self, mask: int) -> int:
        members = list(iter_members(mask))
        if self.policy == "fifo":
            if self._unit_sizes:
                return unit_coalition_value(self.workload, members, self.t)
            return self._fifo_values([mask])[mask]
        # policy == "fair": run the recursive fair algorithm on the
        # restricted workload (lazy import to avoid a package cycle).
        from ..algorithms.ref import RefScheduler

        result = RefScheduler(horizon=self.t).run(
            self.workload.restrict(members), members=members
        )
        return sum(result.utilities(self.t))

    def values_for(self, masks: Iterable[int]) -> dict[int, int]:
        """Batch evaluation (shares the cache).

        With the engine-backed fifo policy, all uncached coalitions are
        simulated on one transient fleet and read in a single fleet query.
        """
        masks = list(masks)
        fresh = [m for m in masks if m not in self._cache and m != 0]
        if fresh and self.policy == "fifo" and not self._unit_sizes:
            self._cache.update(self._fifo_values(fresh))
        return {m: self(m) for m in masks}


def unit_coalition_value(
    workload: Workload, members: Iterable[int], t: int
) -> int:
    """Coalition value for unit-size jobs via the Lindley recursion.

    Prop. 5.4: with unit jobs every greedy algorithm completes the same
    number of jobs by every time moment, so ``v(C, t)`` is policy-free.  The
    backlog follows the queueing (Lindley) recursion
    ``W_tau = max(0, W_{tau-1} + R_tau - m)`` which vectorizes as a cumsum /
    running-minimum pair; a unit served in slot ``tau`` is worth ``t - tau``.
    """
    member_set = set(members)
    m = sum(workload.machines_of(u) for u in member_set)
    if m == 0 or t <= 0:
        return 0
    releases = np.zeros(t, dtype=np.int64)
    for j in workload.jobs:
        if j.org in member_set and j.release < t:
            if j.size != 1:
                raise ValueError("unit_coalition_value requires unit-size jobs")
            releases[j.release] += 1
    served = _lindley_served(releases, m)
    slots = np.arange(t, dtype=np.int64)
    return int(np.sum(served * (t - slots)))


def _lindley_served(releases: np.ndarray, m: int) -> np.ndarray:
    """Units served per slot by an m-server unit-job queue.

    ``W_tau = P_tau - min(0, min_{j<=tau} P_j)`` with
    ``P = cumsum(releases - m)``; then
    ``served_tau = W_{tau-1} + R_tau - W_tau``.
    """
    x = releases.astype(np.int64) - m
    prefix = np.cumsum(x)
    running_min = np.minimum.accumulate(np.minimum(prefix, 0))
    backlog = prefix - running_min
    prev = np.empty_like(backlog)
    prev[0] = 0
    prev[1:] = backlog[:-1]
    return prev + releases - backlog
