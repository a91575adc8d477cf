"""Scheduling algorithms (paper Sections 3, 5 and 7.1).

* :class:`RefScheduler` -- the exact exponential Shapley-fair benchmark.
* :class:`GeneralRefScheduler` -- REF for arbitrary utility functions.
* :class:`RandScheduler` -- the randomized sampled-coalition scheduler
  (FPRAS for unit jobs, heuristic otherwise).
* :class:`DirectContributionScheduler` -- the practical heuristic.
* :class:`FairShareScheduler`, :class:`UtFairShareScheduler`,
  :class:`CurrFairShareScheduler` -- distributive-fairness baselines.
* :class:`RoundRobinScheduler`, :class:`GreedyFifoScheduler` -- controls.
"""

from .base import PolicyScheduler, Scheduler, SchedulerResult
from .direct import DirectContributionScheduler
from .fairshare import (
    CurrFairShareScheduler,
    FairShareScheduler,
    UtFairShareScheduler,
)
from .greedy import GreedyFifoScheduler, fifo_select
from .rand import RandScheduler
from .ref import GeneralRefScheduler, RefScheduler
from .round_robin import RoundRobinScheduler

__all__ = [
    "CurrFairShareScheduler",
    "DirectContributionScheduler",
    "FairShareScheduler",
    "GeneralRefScheduler",
    "GreedyFifoScheduler",
    "PolicyScheduler",
    "RandScheduler",
    "RefScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SchedulerResult",
    "UtFairShareScheduler",
    "fifo_select",
]
