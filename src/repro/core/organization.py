"""Organizations: the players of the cooperative scheduling game.

An organization (paper Section 2) contributes a cluster of ``machines``
identical processors to the common pool and submits a FIFO-ordered stream of
jobs.  Organizations are the *agents* of the cooperative game: coalition
values are sums of per-organization utilities, and the Shapley value divides
the grand-coalition value among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Organization"]


@dataclass(frozen=True, slots=True)
class Organization:
    """A participating organization.

    Attributes
    ----------
    id:
        Organization index ``0 <= id < k``.  Job ownership refers to this.
    machines:
        Number of identical processors the organization contributes,
        :math:`m^{(u)} \\ge 0`.  An organization may own zero machines (it
        then free-rides on the pool; its Shapley contribution reflects that).
    speed:
        Machine speed factor for the *related machines* extension (Section 8
        future work).  ``1.0`` for the paper's identical-machines model; the
        exact REF/RAND algorithms require identical machines, heuristics and
        baselines accept related ones.
    name:
        Optional human-readable label used in reports.
    """

    id: int
    machines: int
    speed: float = 1.0
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"organization id must be >= 0, got {self.id}")
        if self.machines < 0:
            raise ValueError(f"machines must be >= 0, got {self.machines}")
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")
        if not self.name:
            object.__setattr__(self, "name", f"O({self.id})")
