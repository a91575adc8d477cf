"""Exact Shapley value computation (paper Section 3, Eqs. 1-2).

The Shapley value is the unique division of a coalition's value satisfying
the four fairness axioms (efficiency, symmetry, additivity, dummy).  Two
equivalent formulas are implemented:

* the **subset formula** (Eq. 1):
  :math:`\\phi_u = \\sum_{C' \\subseteq C \\setminus \\{u\\}}
  \\frac{|C'|!\\,(|C|-|C'|-1)!}{|C|!}\\,(v(C' \\cup \\{u\\}) - v(C'))`,
* the **permutation formula** (Eq. 2): the expected marginal contribution of
  ``u`` over a uniformly random joining order.

Both use exact :class:`~fractions.Fraction` arithmetic (or scaled integers
when the characteristic function is integer-valued), because the fair
scheduler *compares* these values -- floating-point rounding could flip a
scheduling decision.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Callable, Mapping, Sequence

from ..core.coalition import (
    iter_members,
    iter_subsets,
    popcount,
    scaled_shapley_weights,
)

__all__ = [
    "shapley_exact",
    "shapley_exact_scaled",
    "shapley_keys_scaled",
    "shapley_by_permutations",
    "check_efficiency",
    "check_symmetry",
    "check_dummy",
    "check_additivity",
]

#: A characteristic function: coalition bitmask -> value.
CharFn = Callable[[int], "int | float | Fraction"]


def _as_charfn(v: "CharFn | Mapping[int, object]") -> CharFn:
    if callable(v):
        return v
    table = dict(v)
    return lambda mask: table[mask]


def shapley_exact(
    v: "CharFn | Mapping[int, object]", k: int, *, grand: int | None = None
) -> list[Fraction]:
    """Shapley values of all ``k`` players by the subset formula (Eq. 1):
    the exact-:class:`~fractions.Fraction` view of
    :func:`shapley_exact_scaled` (any real values, floats included, are
    taken exactly).

    Parameters
    ----------
    v:
        Characteristic function over bitmask coalitions (callable or dict).
        Must be defined on every submask of ``grand``; ``v(0)`` is the empty
        coalition (conventionally 0 -- not enforced, the Shapley formula
        handles any normalization).
    k:
        Number of players.
    grand:
        Coalition to divide (default: the grand coalition of all k players).
        Players outside ``grand`` receive 0.

    Complexity: O(3^|grand|) value reads over 2^|grand| value queries --
    use only for small k (the paper's experiments use k <= 10); this
    exactness is what makes REF a *benchmark*.
    """
    vf = _as_charfn(v)
    phi, denom = shapley_exact_scaled(
        lambda mask: Fraction(vf(mask)), k, grand=grand
    )
    return [Fraction(p, denom) for p in phi]


#: Largest coalition whose subset decomposition :func:`_decomposition`
#: caches.  A mask of size s has 3^s (weight, subset, member) terms, so
#: both this cap and the LRU bound matter: REF's small-k body only sees
#: masks below ``VECTORIZE_MIN_K``, but its int64-guard fallback can route
#: the subcoalitions of an arbitrarily large grand coalition through here,
#: and without eviction those would accumulate for the process lifetime.
#: 512 size-6 masks bound the cache at ~512 * 3^6 small tuples (a few tens
#: of MB worst case); bigger masks stream.
_DECOMPOSITION_MAX_K = 6


@lru_cache(maxsize=512)
def _decomposition(
    mask: int,
) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """The Eq. 1 subset sum of ``mask``, flattened: one ``(weight, sub,
    ((member, sub_without_member), ...))`` entry per nonempty submask.
    Pure combinatorics -- independent of any game -- so the cache is
    shared by every caller in the process."""
    weights = scaled_shapley_weights(popcount(mask))
    return tuple(
        (
            weights[popcount(sub)],
            sub,
            tuple((u, sub ^ (1 << u)) for u in iter_members(sub)),
        )
        for sub in iter_subsets(mask)
        if sub
    )


def shapley_exact_scaled(
    v: "CharFn | Mapping[int, object]", k: int, *, grand: int | None = None
) -> tuple[list, int]:
    """Scaled Shapley values by Eq. 1: returns ``(phi_scaled, denom)``
    with ``phi[u] = phi_scaled[u] / denom`` and ``denom = |grand|!``.

    For every nonempty submask ``S`` of ``grand`` and member ``u`` of
    ``S`` it adds ``(|S|-1)! (|grand|-|S|)! * (v(S) - v(S \\ {u}))`` --
    the paper's ``UpdateVals`` (Fig. 1).  Integer values give exact
    integers (what REF compares); Fraction values give Fractions.
    ``phi_scaled`` has length ``k``, 0 for players outside ``grand``.

    ``v`` is read by subscript when it is a mapping, which must hold
    every submask of ``grand`` (0 included); a callable is tabulated over
    those submasks first.  Masks of up to :data:`_DECOMPOSITION_MAX_K`
    members take their decomposition from a cache (REF's small-k exact
    body runs here once per capable coalition per event); larger ones
    stream it.
    """
    g = (1 << k) - 1 if grand is None else grand
    if not 0 <= g < 1 << k:
        raise ValueError(
            f"grand={grand!r} is not a coalition of {k} players "
            f"(need 0 <= grand < 2**{k})"
        )
    values = {sub: v(sub) for sub in iter_subsets(g)} if callable(v) else v
    phi = [0] * k
    n = popcount(g)
    if n == 0:
        return phi, 1
    if n <= _DECOMPOSITION_MAX_K:
        for w, sub, members in _decomposition(g):
            v_sub = values[sub]
            for u, without in members:
                phi[u] += w * (v_sub - values[without])
        return phi, factorial(n)
    weights = scaled_shapley_weights(n)
    for sub in iter_subsets(g):
        if sub == 0:
            continue
        w = weights[popcount(sub)]
        v_sub = values[sub]
        for u in iter_members(sub):
            phi[u] += w * (v_sub - values[sub ^ (1 << u)])
    return phi, factorial(n)


def shapley_keys_scaled(
    values: "Mapping[int, int]", k: int, grand: int, psis: Sequence[int]
) -> dict[int, int]:
    """Exact decision keys ``|grand|! * (phi_u - psi_u)`` of every member
    ``u`` of ``grand``, with ``phi`` the Eq. 1 value of the coalition
    ``values`` holds in full (the exact lattice of the approximation
    ladder's oracles) and ``psis`` indexed by player."""
    phi, denom = shapley_exact_scaled(values, k, grand=grand)
    return {u: phi[u] - denom * psis[u] for u in iter_members(grand)}


def shapley_by_permutations(
    v: "CharFn | Mapping[int, object]", k: int, *, grand: int | None = None
) -> list[Fraction]:
    """Shapley values by brute-force enumeration of joining orders (Eq. 2).

    O(k! * k) -- only for tiny ``k``; exists to cross-validate the subset
    formula in tests.
    """
    vf = _as_charfn(v)
    g = (1 << k) - 1 if grand is None else grand
    players = list(iter_members(g))
    n = len(players)
    phi = [Fraction(0)] * k
    if n == 0:
        return phi
    for order in permutations(players):
        mask = 0
        for u in order:
            before = vf(mask)
            mask |= 1 << u
            phi[u] += Fraction(vf(mask)) - Fraction(before)
    n_orders = factorial(n)
    return [p / n_orders for p in phi]


# ----------------------------------------------------------------------
# Axiom verifiers (used by tests and by the shapley_playground example)
# ----------------------------------------------------------------------
def check_efficiency(
    v: "CharFn | Mapping[int, object]", phi: Sequence[Fraction], grand: int
) -> bool:
    """Axiom: the shares of the grand coalition's members sum to its value."""
    vf = _as_charfn(v)
    total = sum((phi[u] for u in iter_members(grand)), Fraction(0))
    return total == Fraction(vf(grand))


def check_symmetry(
    v: "CharFn | Mapping[int, object]",
    phi: Sequence[Fraction],
    grand: int,
    u1: int,
    u2: int,
) -> bool:
    """Axiom: players with identical marginal contributions to every
    coalition (not containing either) get equal shares.

    Returns True when the premise fails (vacuous) or shares are equal.
    """
    vf = _as_charfn(v)
    rest = grand & ~(1 << u1) & ~(1 << u2)
    for sub in iter_subsets(rest):
        if Fraction(vf(sub | (1 << u1))) != Fraction(vf(sub | (1 << u2))):
            return True  # premise violated; axiom says nothing
    return phi[u1] == phi[u2]


def check_dummy(
    v: "CharFn | Mapping[int, object]",
    phi: Sequence[Fraction],
    grand: int,
    u: int,
) -> bool:
    """Axiom: a player adding nothing to any coalition receives 0.

    Returns True when the premise fails or the share is 0.
    """
    vf = _as_charfn(v)
    rest = grand & ~(1 << u)
    for sub in iter_subsets(rest):
        if Fraction(vf(sub | (1 << u))) != Fraction(vf(sub)):
            return True
    return phi[u] == 0


def check_additivity(
    v: "CharFn | Mapping[int, object]",
    w: "CharFn | Mapping[int, object]",
    k: int,
    grand: int,
) -> bool:
    """Axiom: phi(v + w) = phi(v) + phi(w) player-wise."""
    vf, wf = _as_charfn(v), _as_charfn(w)
    combined = lambda mask: Fraction(vf(mask)) + Fraction(wf(mask))  # noqa: E731
    phi_v = shapley_exact(vf, k, grand=grand)
    phi_w = shapley_exact(wf, k, grand=grand)
    phi_vw = shapley_exact(combined, k, grand=grand)
    return all(phi_vw[u] == phi_v[u] + phi_w[u] for u in range(k))
