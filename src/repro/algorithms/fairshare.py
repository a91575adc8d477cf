"""The fair share family (paper Section 7.1): distributive fairness.

Three variants, all balancing some per-organization quantity against a
*target share* (set, as in the paper, to the fraction of processors the
organization contributes to the pool):

* **FAIRSHARE** (Kay & Lauder 1988) -- balances consumed CPU time: whenever
  a machine frees up, the waiting organization with the lowest ratio
  ``consumed_cpu / share`` starts its head job.
* **UTFAIRSHARE** -- same mechanism on the strategy-proof utility:
  lowest ``psi_sp / share`` first (the paper added it to isolate the effect
  of the balanced quantity from the allocation mechanism).
* **CURRFAIRSHARE** -- memoryless: balances the number of *currently
  running* jobs against shares; history does not influence decisions.

The paper's experimental finding (Tables 1-2): distributive fairness is
better than arbitrary policies but consistently less fair (in the Shapley
sense) than contribution-tracking algorithms, because static target shares
ignore *when* resources were needed and provided.
"""

from __future__ import annotations

import math
from abc import abstractmethod

from ..core.engine import ClusterEngine
from .base import PolicyScheduler

__all__ = [
    "FairShareScheduler",
    "UtFairShareScheduler",
    "CurrFairShareScheduler",
]


class _ShareBased(PolicyScheduler):
    """Common machinery: pick the waiting org minimizing ratio/share."""

    def __init__(self, horizon: int | None = None):
        super().__init__(horizon)
        self._shares: tuple[float, ...] = ()

    def on_run_start(self, engine: ClusterEngine) -> None:
        # Shares are the fraction of the *coalition's* pool each member
        # contributes (paper Section 7.1).
        total = engine.n_machines
        counts = [0] * engine.n_orgs
        for org in engine.workload.organizations:
            if org.id in engine.members:
                counts[org.id] = org.machines
        self._shares = tuple(
            (c / total) if total else 0.0 for c in counts
        )

    def on_cluster_change(self, engine: ClusterEngine) -> None:
        # Online membership / pool mutations move the target shares; derive
        # them from the engine's *live* machine census (the workload only
        # describes the genesis endowments).
        counts = engine.machine_counts()
        total = sum(counts[u] for u in engine.members)
        self._shares = tuple(
            (counts[u] / total) if total and u in engine.members else 0.0
            for u in range(engine.n_orgs)
        )

    @abstractmethod
    def _measure(self, engine: ClusterEngine, org: int) -> float:
        """The quantity balanced against ``org``'s share."""

    def select(self, engine: ClusterEngine) -> int:
        def ratio(u: int) -> float:
            share = self._shares[u]
            if share == 0.0:
                return math.inf
            return self._measure(engine, u) / share

        return min(engine.waiting_orgs(), key=lambda u: (ratio(u), u))


class FairShareScheduler(_ShareBased):
    """Classic fair share: balance consumed CPU time against shares.

    "Consumed CPU time" is non-clairvoyant: completed work plus the elapsed
    running time of unfinished jobs, both known at decision time.
    """

    name = "FairShare"

    def _measure(self, engine: ClusterEngine, org: int) -> float:
        return float(engine.consumed_cpu(org))


class UtFairShareScheduler(_ShareBased):
    """Fair share on the strategy-proof utility instead of CPU time."""

    name = "UtFairShare"

    def _measure(self, engine: ClusterEngine, org: int) -> float:
        return float(engine.psi(org))


class CurrFairShareScheduler(_ShareBased):
    """Memoryless fair share: balance currently-running job counts.

    Note the measure *changes within one event* as jobs start, so selection
    re-evaluates after every start (the paper highlights that this variant
    keeps no history at all).
    """

    name = "CurrFairShare"

    def _measure(self, engine: ClusterEngine, org: int) -> float:
        return float(engine.running_count(org))
