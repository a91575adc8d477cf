"""Utility function interface.

The paper (Section 2) defines a utility function
:math:`\\psi : \\Gamma \\times O \\times T \\to \\mathbb{R}` mapping a
schedule, an organization and a time moment to the organization's
satisfaction.  Section 4 restricts attention to *envy-free* utilities that
depend only on the organization's own jobs and are *non-clairvoyant* (only
parts of jobs executed before ``t`` count).  We therefore expose the
schedule to a utility as the list of ``(start, size)`` pairs of one
organization's started jobs -- the paper's identification of a schedule with
:math:`\\bigcup \\{(s^{(u)}_i, p^{(u)}_i)\\}`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

__all__ = ["UtilityFunction", "Pairs"]

#: ``(start, size)`` pairs of one organization's started jobs.
Pairs = Sequence[tuple[int, int]]


class UtilityFunction(ABC):
    """An envy-free, non-clairvoyant per-organization utility.

    Subclasses implement :meth:`value`.  ``maximize`` tells the fair
    scheduler which direction is "better" (flow time is a minimization
    metric; the strategy-proof utility is maximized).
    """

    #: True when larger values are better.
    maximize: bool = True

    #: Human-readable name used in reports.
    name: str = "utility"

    @abstractmethod
    def value(self, pairs: Pairs, t: int) -> float:
        """Utility at time ``t`` of an organization whose started jobs are
        ``pairs``.

        Only job parts executed strictly before ``t`` may influence the
        result (non-clairvoyance); implementations clamp with
        ``min(size, t - start)``.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
