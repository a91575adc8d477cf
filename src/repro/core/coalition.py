"""Coalitions as immutable bitmask sets, plus Shapley weight tables.

A coalition :math:`\\mathcal{C} \\subseteq \\mathcal{O}` is a subset of the
organizations.  The exponential algorithms (REF, exact Shapley) enumerate all
:math:`2^k` subsets, so the representation must be compact and hashable and
subset enumeration must be cheap: we use integer bitmasks, where bit ``u``
set means organization ``u`` is a member.

The Shapley subset formula (paper Eq. 1) weighs the marginal contribution of
``u`` to ``C'`` by ``|C'|! (k - |C'| - 1)! / k!``.  Working with those
rationals in floating point would make fairness *decisions* (argmin over
organizations) vulnerable to rounding ties, so we precompute **scaled
integer** weights multiplied by ``k!`` -- all REF comparisons then happen in
exact integer arithmetic (Python ints are unbounded).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator

__all__ = [
    "Coalition",
    "iter_subsets",
    "iter_proper_subsets",
    "iter_members",
    "subsets_by_size",
    "shapley_weight",
    "scaled_shapley_weights",
    "popcount",
]


def popcount(mask: int) -> int:
    """Number of members in a coalition bitmask."""
    return mask.bit_count()


class Coalition:
    """An immutable set of organization indices backed by a bitmask.

    Thin value-type wrapper: most internal code passes raw ``int`` masks for
    speed; :class:`Coalition` is the public-facing API with set semantics.
    """

    __slots__ = ("mask",)

    def __init__(self, members: "int | Iterator[int] | list[int] | tuple[int, ...] | set[int] | frozenset[int]" = 0):
        if isinstance(members, int):
            if members < 0:
                raise ValueError("coalition mask must be >= 0")
            mask = members
        else:
            mask = 0
            for u in members:
                if u < 0:
                    raise ValueError("organization indices must be >= 0")
                mask |= 1 << u
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Coalition is immutable")

    # -- set protocol -----------------------------------------------------
    def __contains__(self, u: int) -> bool:
        return bool((self.mask >> u) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_members(self.mask)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Coalition):
            return self.mask == other.mask
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Coalition", self.mask))

    def __repr__(self) -> str:
        return f"Coalition({sorted(self)})"

    # -- algebra -----------------------------------------------------------
    def add(self, u: int) -> "Coalition":
        return Coalition(self.mask | (1 << u))

    def remove(self, u: int) -> "Coalition":
        if u not in self:
            raise KeyError(u)
        return Coalition(self.mask & ~(1 << u))

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask)

    def intersection(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask)

    def issubset(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def subsets(self, proper: bool = False) -> Iterator["Coalition"]:
        it = iter_proper_subsets(self.mask) if proper else iter_subsets(self.mask)
        return (Coalition(m) for m in it)

    @staticmethod
    def grand(k: int) -> "Coalition":
        """The grand coalition of ``k`` organizations (paper's C_g)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return Coalition((1 << k) - 1)


def iter_members(mask: int) -> Iterator[int]:
    """Yield the organization indices in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_subsets(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` including 0 and ``mask`` itself.

    Uses the standard descending submask-enumeration trick:
    ``sub = (sub - 1) & mask``, which visits each of the ``2^popcount(mask)``
    submasks exactly once.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_proper_subsets(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` except ``mask`` itself (0 included)."""
    it = iter_subsets(mask)
    next(it)  # skip mask itself
    yield from it


def subsets_by_size(mask: int) -> list[list[int]]:
    """All submasks of ``mask`` grouped by popcount (index = size).

    REF processes subcoalitions in increasing size order each event time
    (paper Fig. 1, the ``for s <- 1 to |C|`` loop); this helper materializes
    that ordering once.
    """
    groups: list[list[int]] = [[] for _ in range(popcount(mask) + 1)]
    for sub in iter_subsets(mask):
        groups[popcount(sub)].append(sub)
    return groups


def shapley_weight(subset_size: int, k: int) -> Fraction:
    """Exact Shapley weight ``(s-1)! (k-s)! / k!`` for a subset of size ``s``
    *containing* the player, in a game with ``k`` players (paper Eq. 1 as used
    by ``UpdateVals`` in Fig. 1).
    """
    if not 1 <= subset_size <= k:
        raise ValueError(f"subset size must be in [1, {k}], got {subset_size}")
    return Fraction(
        factorial(subset_size - 1) * factorial(k - subset_size), factorial(k)
    )


@lru_cache(maxsize=None)
def scaled_shapley_weights(k: int) -> tuple[int, ...]:
    """Integer Shapley weights scaled by ``k!``.

    ``scaled_shapley_weights(k)[s]`` equals ``(s-1)! (k-s)! `` for subset
    size ``s`` (index 0 unused).  Summing ``weight[s] * (v(S) - v(S\\{u}))``
    over subsets S containing u yields ``k! * phi_u`` -- an exact integer
    whenever coalition values are integers, which is what REF compares.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [0] * (k + 1)
    for s in range(1, k + 1):
        out[s] = factorial(s - 1) * factorial(k - s)
    return tuple(out)
