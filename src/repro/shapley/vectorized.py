"""Vectorized scaled Shapley contributions (the REF ``UpdateVals`` hot path).

The paper's ``UpdateVals`` (Fig. 1) computes, for a coalition ``C`` and every
member ``u``, the Eq. 1 subset sum

.. math::

    |C|!\\,\\phi_u = \\sum_{S \\subseteq C,\\ u \\in S}
        (|S|-1)!\\,(|C|-|S|)!\\,(v(S) - v(S \\setminus \\{u\\}))

Grouping by the coalition whose value is read, the coefficient of ``v(S)``
in ``|C|! phi_u`` is ``(|S|-1)! (|C|-|S|)!`` when ``u ∈ S`` and
``-|S|! (|C|-|S|-1)!`` when ``u ∉ S`` (via ``S' = S ∪ {u}``).  So
``UpdateVals`` is one integer matrix-vector product ``phi = M @ v`` whose
``M`` depends only on ``|C|`` -- one cached matrix per coalition size
(:func:`size_plan`) -- turning REF's per-event ``O(k·2^k)`` Python loop
into a numpy matmul over the :class:`~repro.core.fleet.CoalitionFleet`'s
batched value vector.

Exactness: coefficients and values are int64, and each product carries a
precomputed worst-case bound (``Σ|row coefficients| · max|v|``); a query
whose bound does not fit in signed int64 returns ``None`` and the caller
falls back to the unbounded-int reference implementation
(:func:`repro.shapley.exact.shapley_exact_scaled`, the package's one
Eq. 1 loop) -- results are bit-equal whenever both paths run (verified
in tests).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from ..core.coalition import scaled_shapley_weights

__all__ = ["ScaledShapleySolver", "size_plan"]

_INT64_CAP = 1 << 62


@lru_cache(maxsize=None)
def size_plan(size: int) -> "tuple[np.ndarray, int]":
    """``UpdateVals`` for every coalition of ``size`` members: the
    ``(size, 2^size - 1)`` int64 matrix whose column ``j - 1`` weights the
    value of local subset ``j`` (bit ``i``: the ``i``-th lowest member) in
    each member's ``|C|! phi`` -- positive exactly where the subset holds
    the member -- and its largest absolute row sum (the guard's weight)."""
    bits = (np.arange(1, 1 << size) >> np.arange(size)[:, None]) & 1
    weights = np.array(scaled_shapley_weights(size) + (0,), dtype=np.int64)
    sub_size = bits.sum(axis=0)
    coef = np.where(bits == 1, weights[sub_size], -weights[sub_size + 1])
    coef.setflags(write=False)  # shared by every solver in the process
    return coef, int(np.abs(coef).sum(axis=1).max())


class ScaledShapleySolver:
    """Computes ``|C|!``-scaled Shapley contributions for any coalition from
    a dense vector of coalition values.

    Parameters
    ----------
    index:
        Mapping from coalition bitmask to its row in the value vectors that
        will be passed to :meth:`phi_scaled_matrix` -- typically the
        registration order of a :class:`~repro.core.fleet.CoalitionFleet`.
        Must cover
        every nonempty submask of any mask later queried (the empty
        coalition's value is 0 by definition and needs no row).
    """

    def __init__(self, index: Mapping[int, int]):
        masks = np.fromiter(index, dtype=np.int64, count=len(index))
        by_mask = np.argsort(masks)
        self._masks = masks[by_mask]
        self._rows = np.fromiter(index.values(), np.intp, len(index))[by_mask]
        self._matrix_plans: dict[tuple[int, ...], tuple] = {}

    def matrix_plan(
        self, masks: "tuple[int, ...]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int]":
        """The cached plan of one equal-size mask family: ``(coef (s,
        2^s-1), value_rows (n, 2^s-1), org_cols (n, s), row_weight)``, where
        ``coef`` and ``row_weight`` are :func:`size_plan`'s, shared by every
        family of size ``s``.  Row ``r`` of ``values[value_rows] @ coef.T``
        is ``|C|! phi`` of ``masks[r]``'s members in ``org_cols[r]`` order.
        :meth:`phi_scaled_matrix` evaluates it; callers that fuse several
        size groups into one pass (the REF kernel event body) consume it
        directly.  A submask outside the index raises ``KeyError``."""
        plan = self._matrix_plans.get(masks)
        if plan is None:
            sizes = {m.bit_count() for m in masks}
            if len(sizes) != 1:
                raise ValueError("batched masks must share a size")
            (size,) = sizes
            arr = np.array(masks, dtype=np.int64)
            width = int(arr.max()).bit_length()
            in_mask = (arr[:, None] >> np.arange(width)) & 1
            cols = np.flatnonzero(in_mask).reshape(-1, size) % width
            coef, row_weight = size_plan(size)
            # each local subset's members' bits: the submasks, per mask
            subs = (1 << cols) @ (coef > 0)
            pos = np.searchsorted(self._masks, subs)
            found = self._masks.take(pos, mode="clip") == subs
            if not found.all():
                raise KeyError(int(subs[~found][0]))
            plan = (coef, self._rows[pos], cols, row_weight)
            self._matrix_plans[masks] = plan
        return plan

    def phi_scaled_matrix(
        self,
        masks: "tuple[int, ...]",
        values: np.ndarray,
        max_abs_value: int,
        n_orgs: int,
    ) -> "np.ndarray | None":
        """``UpdateVals`` for a whole family of equal-size coalitions in one
        matmul (REF evaluates a full size group per event time -- paper
        Fig. 1's ``for s <- 1 to |C|`` loop): a dense ``(len(masks),
        n_orgs)`` int64 matrix of ``|C|! * phi`` (zero for non-members).
        ``masks`` must share a popcount and should be a stable tuple (the
        value-row plan is cached per tuple); ``max_abs_value`` must bound
        ``|values[i]|`` over the rows of their submasks (any global bound
        works).  Returns ``None`` when the int64 guard cannot certify the
        products (the caller falls back to exact big-int
        ``shapley_exact_scaled``).
        """
        coef, rows, cols, row_weight = self.matrix_plan(masks)
        if max_abs_value < 0 or row_weight * max_abs_value >= _INT64_CAP:
            return None
        full = np.zeros((len(masks), n_orgs), dtype=np.int64)
        full[np.arange(len(masks))[:, None], cols] = values[rows] @ coef.T
        return full
