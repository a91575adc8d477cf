"""Monte-Carlo Shapley estimation (paper Section 5.1, Algorithm RAND's core).

The scheduling game is **not** supermodular (Prop. 5.5), so the
Liben-Nowell et al. supermodular-game sampler does not apply directly; the
paper instead samples N uniformly random joining orders and uses Hoeffding's
inequality to bound the estimation error of the mean marginal contribution
(Theorem 5.6):

.. math::

    N \\;=\\; \\Big\\lceil \\frac{k^2}{\\epsilon^2}
             \\ln\\frac{k}{1-\\lambda} \\Big\\rceil

guarantees, with probability :math:`\\lambda`, that every player's estimate
is within :math:`\\frac{\\epsilon}{k} v^*(C)` of its Shapley value, hence the
utility vector is within :math:`\\epsilon\\,v^*` in the Manhattan norm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "ORDERING_SAMPLERS",
    "antithetic_orderings",
    "hoeffding_samples",
    "sample_orderings",
    "sample_member_orderings",
    "shapley_sample",
    "stratified_orderings",
    "SampledPrefixes",
]

CharFn = Callable[[int], "int | float | Fraction"]


def hoeffding_samples(k: int, epsilon: float, lam: float) -> int:
    """Sample count N of Theorem 5.6: ``ceil(k^2/eps^2 * ln(k/(1-lambda)))``.

    Parameters
    ----------
    k:
        Number of players (organizations).
    epsilon:
        Target relative Manhattan-norm error (fraction of the coalition
        value).
    lam:
        Success probability (the paper's lambda).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if not 0 < lam < 1:
        raise ValueError("lambda must be in (0, 1)")
    return math.ceil(k * k / (epsilon * epsilon) * math.log(k / (1.0 - lam)))


def sample_orderings(
    k: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` independent uniform permutations of ``0..k-1`` (with
    replacement), as an ``(n, k)`` integer array."""
    if n < 1:
        raise ValueError("need at least one ordering")
    return np.array([rng.permutation(k) for _ in range(n)], dtype=np.int64)


def sample_member_orderings(
    members: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` independent uniform permutations of ``members`` as an
    ``(n, len(members))`` int64 array.  This is the exact draw sequence
    :class:`~repro.algorithms.rand.RandRun` has always used (one
    ``rng.permutation`` call per row), factored out so the variance-reduced
    samplers below are drop-in replacements on the same RNG stream."""
    if n < 1:
        raise ValueError("need at least one ordering")
    member_arr = np.asarray(members, dtype=np.int64)
    return np.stack([rng.permutation(member_arr) for _ in range(n)])


def antithetic_orderings(
    members: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Antithetic pairs: each drawn permutation is followed by its reverse
    (DESIGN.md §12.1).  A player joining early in ``pi`` joins late in
    ``reversed(pi)``, so the two marginal samples are negatively
    correlated and their average has lower variance than two independent
    draws.  Each *pair* is an unbiased two-sample estimate; an odd ``n``
    truncates the last pair (slight imbalance, still unbiased per row)."""
    if n < 1:
        raise ValueError("need at least one ordering")
    member_arr = np.asarray(members, dtype=np.int64)
    rows: list[np.ndarray] = []
    while len(rows) < n:
        pi = rng.permutation(member_arr)
        rows.append(pi)
        rows.append(pi[::-1])
    return np.stack(rows[:n])


def stratified_orderings(
    members: np.ndarray,
    n: int,
    rng: np.random.Generator,
    *,
    antithetic: bool = True,
) -> np.ndarray:
    """Position-stratified (and optionally antithetic) joining orders.

    Uniform sampling lets a player's *position* histogram drift (it may
    land "late" in most of a small batch), and position is the dominant
    variance driver of a marginal contribution.  Stratification emits the
    ``k`` cyclic rotations of each drawn permutation: across one block
    every player occupies every position exactly once, removing the
    position-count variance entirely.  With ``antithetic=True`` each
    rotation is immediately followed by its reverse (block size ``2k``),
    composing both variance-reduction devices.

    Rows remain identically distributed uniform permutations (a rotation
    or reversal of a uniform permutation is uniform), so
    :class:`SampledPrefixes` estimates stay unbiased; only the *joint*
    distribution changes.  ``n`` not divisible by the block size truncates
    the last block, trading a little balance for the exact budget.
    """
    if n < 1:
        raise ValueError("need at least one ordering")
    member_arr = np.asarray(members, dtype=np.int64)
    k = len(member_arr)
    if k == 0:
        raise ValueError("need at least one member")
    rows: list[np.ndarray] = []
    while len(rows) < n:
        pi = rng.permutation(member_arr)
        for shift in range(k):
            rot = np.roll(pi, -shift)
            rows.append(rot)
            if antithetic:
                rows.append(rot[::-1])
    return np.stack(rows[:n])


def _stratified_plain(
    members: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    return stratified_orderings(members, n, rng, antithetic=False)


#: Named ordering samplers, all sharing the signature
#: ``(members, n, rng) -> (n, k) int64 array`` -- what
#: :class:`~repro.algorithms.rand.RandRun` accepts as its ``sampler``.
ORDERING_SAMPLERS: "dict[str, Callable[[np.ndarray, int, np.random.Generator], np.ndarray]]" = {
    "uniform": sample_member_orderings,
    "antithetic": antithetic_orderings,
    "stratified": _stratified_plain,
    "stratified_antithetic": stratified_orderings,
}


class SampledPrefixes:
    """The coalition structure RAND maintains (paper Fig. 6, ``Prepare``).

    For each sampled ordering and each player ``u``, record the pair
    ``(pred_mask, pred_mask | {u})`` -- the coalitions whose value difference
    is one sample of ``u``'s marginal contribution.  ``masks`` is the
    de-duplicated set of all coalitions whose values must be tracked
    (``Subs`` and ``Subs'`` in the paper's notation).
    """

    def __init__(self, k: int, orderings: np.ndarray):
        """``k`` bounds the player ids; each row of ``orderings`` is one
        sampled joining order of the participating players (all ``k`` of
        them, or any fixed subcoalition -- players that never appear simply
        collect zero marginal samples)."""
        if orderings.ndim != 2 or orderings.shape[1] > k:
            raise ValueError("orderings must be an (n, <=k) array")
        if orderings.size and not (
            0 <= int(orderings.min()) and int(orderings.max()) < k
        ):
            raise ValueError("player ids must be in [0, k)")
        self.k = k
        self.n = int(orderings.shape[0])
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        masks: set[int] = {0}
        for row in orderings:
            mask = 0
            for u in map(int, row):
                with_u = mask | (1 << u)
                pairs[u].append((mask, with_u))
                masks.add(mask)
                masks.add(with_u)
                mask = with_u
        self.pairs: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(p) for p in pairs
        )
        self.masks: frozenset[int] = frozenset(masks)
        self._coef_cache: "tuple[tuple[int, ...], np.ndarray, int] | None" = None
        self._idx_cache: "tuple[tuple[int, ...], dict[int, tuple[np.ndarray, np.ndarray]]] | None" = None

    def _coefficients(
        self, order: "tuple[int, ...]"
    ) -> "tuple[np.ndarray, int]":
        """``(k, len(order))`` int64 coefficient matrix ``M`` with
        ``M @ values == estimate_scaled`` for a value vector aligned with
        ``order``, plus the max absolute row sum (the overflow guard
        weight).  Cached per coalition order."""
        cached = self._coef_cache
        if cached is not None and cached[0] == order:
            return cached[1], cached[2]
        index = {m: i for i, m in enumerate(order)}
        coef = np.zeros((self.k, len(order)), dtype=np.int64)
        for u in range(self.k):
            for pred, with_u in self.pairs[u]:
                coef[u, index[with_u]] += 1
                if pred:
                    coef[u, index[pred]] -= 1
        weight = int(np.abs(coef).sum(axis=1).max()) if coef.size else 0
        self._coef_cache = (order, coef, weight)
        return coef, weight

    def estimate_scaled_array(
        self, order: "tuple[int, ...]", values: np.ndarray, max_abs_value: int
    ) -> "list[int] | None":
        """:meth:`estimate_scaled` as one int64 matrix-vector product over a
        dense value vector aligned with ``order`` (every mask in
        :attr:`masks` except 0 must appear).  Returns ``None`` when the
        int64 guard cannot certify the product -- fall back to the exact
        big-int :meth:`estimate_scaled`."""
        coef, weight = self._coefficients(order)
        if max_abs_value < 0 or weight * max_abs_value >= 1 << 62:
            return None
        return (coef @ values).tolist()

    def estimate_scaled_at(
        self, oracle, order: "tuple[int, ...]", t: int, select
    ) -> "tuple[list[int], np.ndarray, int]":
        """:meth:`estimate_scaled` from a value-oracle fleet (a
        :class:`~repro.core.fleet.CoalitionFleet` over :attr:`masks`, each
        engine driven by ``select``) at time ``t``: ``(sums, values,
        max_abs)``.  The sums are one guarded int64 matrix-vector product
        (:meth:`estimate_scaled_array`) when the fleet's int64 value
        vector is aligned with ``order``, else the exact big-int sum over
        its ``values_at``.  ``values`` is the value vector aligned with
        ``order`` (int64, or Python ints in an object array) and
        ``max_abs`` its largest magnitude."""
        arr = oracle.values_array(t, select=select)
        if arr is not None and oracle.masks == order:
            max_abs = int(np.abs(arr).max()) if len(arr) else 0
            sums = self.estimate_scaled_array(order, arr, max_abs)
            if sums is not None:
                return sums, arr, max_abs
        values = oracle.values_at(t, select=select)
        vec = np.array([values[m] for m in order], dtype=object)
        max_abs = max((abs(v) for v in vec), default=0)
        return self.estimate_scaled(values), vec, max_abs

    def sample_indices(
        self, order: "tuple[int, ...]"
    ) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Per-player ``(pred_idx, with_idx)`` int64 index arrays into a
        dense value vector aligned with ``order`` (``pred_idx == -1``
        marks the empty predecessor coalition, whose value is 0).  Cached
        per coalition order; players with no sampled pairs are absent."""
        cached = self._idx_cache
        if cached is not None and cached[0] == order:
            return cached[1]
        index = {m: i for i, m in enumerate(order)}
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for u in range(self.k):
            if not self.pairs[u]:
                continue
            pred_idx = np.array(
                [index[p] if p else -1 for p, _ in self.pairs[u]],
                dtype=np.int64,
            )
            with_idx = np.array(
                [index[w] for _, w in self.pairs[u]], dtype=np.int64
            )
            out[u] = (pred_idx, with_idx)
        self._idx_cache = (order, out)
        return out

    def marginal_samples(
        self, order: "tuple[int, ...]", values: np.ndarray
    ) -> "dict[int, np.ndarray]":
        """Per-player vectors of the individual sampled marginal
        contributions (one entry per ordering containing the player), from
        a dense int64 value vector aligned with ``order``.  This is the
        per-sample view the adaptive certifier needs for empirical
        variance; ``sum(marginal_samples[u]) == estimate_scaled[u]``."""
        out: dict[int, np.ndarray] = {}
        for u, (pred_idx, with_idx) in self.sample_indices(order).items():
            pred_vals = np.where(pred_idx >= 0, values[pred_idx], 0)
            out[u] = values[with_idx] - pred_vals
        return out

    def estimate_scaled(self, values: Mapping[int, int]) -> list[int]:
        """Sum of sampled marginal contributions per player (= N * phi-hat).

        With integer coalition values this is exact; divide by ``self.n``
        for the estimate itself.  RAND compares ``N*phi - N*psi`` so the
        division never happens.
        """
        out = [0] * self.k
        for u in range(self.k):
            acc = 0
            for pred, with_u in self.pairs[u]:
                acc += values[with_u] - values[pred]
            out[u] = acc
        return out

    def estimate(self, values: Mapping[int, "int | float"]) -> list[float]:
        """Mean sampled marginal contribution per player (phi-hat)."""
        return [s / self.n for s in self.estimate_scaled(values)]


def shapley_sample(
    v: "CharFn | Mapping[int, object]",
    k: int,
    n_samples: int,
    rng: np.random.Generator,
) -> list[float]:
    """Monte-Carlo Shapley estimate from ``n_samples`` random orderings.

    Standalone estimator (the in-scheduler version shares coalition engines
    across time; see :class:`repro.algorithms.rand.RandScheduler`).
    """
    vf = v if callable(v) else (lambda mask, _tbl=dict(v): _tbl[mask])
    orderings = sample_orderings(k, n_samples, rng)
    phi = [0.0] * k
    for row in orderings:
        mask = 0
        prev = float(vf(0))
        for u in map(int, row):
            mask |= 1 << u
            cur = float(vf(mask))
            phi[u] += cur - prev
            prev = cur
    return [p / n_samples for p in phi]
