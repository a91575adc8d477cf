"""ROUNDROBIN (paper Section 7.1): cycle through the organizations.

The paper's unfairness baseline: an arbitrary scheduling policy with no
notion of contribution.  It cycles over the organization list; at each start
opportunity the next organization (in cyclic order) with a waiting job gets
to run its FIFO-head job.
"""

from __future__ import annotations

from ..core.engine import ClusterEngine
from .base import PolicyScheduler

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler(PolicyScheduler):
    """Cyclic selection over organizations (skipping empty queues).

    The cursor is the *organization id* last served, not a position in
    the member tuple: under online membership changes a positional
    pointer would silently re-aim at a different organization when the
    tuple shifts, whereas "first waiting member cyclically after org u"
    stays well-defined even if u itself has left.  On a fixed member set
    the two formulations are identical (the member tuple is ascending).
    """

    name = "RoundRobin"

    def __init__(self, horizon: int | None = None):
        super().__init__(horizon)
        self._last_served = -1

    def on_run_start(self, engine: ClusterEngine) -> None:
        self._last_served = -1

    def state(self) -> "dict[str, list[int]]":
        return {"cursor": [self._last_served]}

    def load_state(self, state: "dict[str, list[int]]") -> None:
        if set(state) != {"cursor"} or len(state["cursor"]) != 1:
            raise ValueError(
                f"image scheduler rows {state!r}: {self.name} keeps one "
                f"cursor row [org]"
            )
        (self._last_served,) = state["cursor"]

    def select(self, engine: ClusterEngine) -> int:
        members = engine.members
        ordered = [u for u in members if u > self._last_served] + [
            u for u in members if u <= self._last_served
        ]
        for u in ordered:
            if engine.waiting_count(u) > 0:
                self._last_served = u
                return u
        raise RuntimeError("select called with no waiting jobs")
