"""Plain greedy FIFO: start the longest-waiting released job first.

The representative of "any greedy algorithm" used throughout the paper:

* Prop. 5.4 -- with unit-size jobs every greedy algorithm yields the same
  coalition value at every time, so RAND uses an arbitrary greedy policy for
  its sampled coalitions; this is that policy.
* Theorem 6.2 -- the 3/4 utilization bound holds for *every* greedy
  algorithm; tests exercise this one among others.
"""

from __future__ import annotations

from ..core.engine import ClusterEngine
from .base import PolicyScheduler

__all__ = ["GreedyFifoScheduler", "fifo_select"]


def fifo_select(engine: ClusterEngine) -> int:
    """Pick the organization whose head job was released earliest
    (ties: lowest organization id) -- a deterministic global FIFO."""
    return engine.fifo_head()


#: Marks the selector as natively understood by the batched
#: :class:`~repro.core.kernel.FleetKernel`: a fleet driven with it advances
#: every coalition in one vectorized lockstep sweep instead of per-engine
#: Python loops (bit-identical schedules; see DESIGN.md §8).
fifo_select.kernel_policy = "fifo"


class GreedyFifoScheduler(PolicyScheduler):
    """Global first-come-first-served over all organizations."""

    name = "GreedyFIFO"

    def select(self, engine: ClusterEngine) -> int:
        return fifo_select(engine)
