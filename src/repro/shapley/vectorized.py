"""Vectorized scaled Shapley contributions (the REF ``UpdateVals`` hot path).

The paper's ``UpdateVals`` (Fig. 1) computes, for a coalition ``C`` and every
member ``u``, the Eq. 1 subset sum

.. math::

    |C|!\\,\\phi_u = \\sum_{S \\subseteq C,\\ u \\in S}
        (|S|-1)!\\,(|C|-|S|)!\\,(v(S) - v(S \\setminus \\{u\\}))

Grouping by the coalition whose value is read, the coefficient of ``v(S)``
in ``|C|! phi_u`` is ``(|S|-1)! (|C|-|S|)!`` when ``u ∈ S`` and
``-|S|! (|C|-|S|-1)!`` when ``u ∉ S`` (via ``S' = S ∪ {u}``).  So
``UpdateVals`` is one integer matrix-vector product ``phi = M @ v`` with a
coefficient matrix that depends only on the coalition mask -- it is built
once per mask and cached, turning REF's per-event ``O(k·2^k)`` Python loop
into a numpy matmul over the :class:`~repro.core.fleet.CoalitionFleet`'s
batched value vector.

Exactness: coefficients and values are int64, and each product carries a
precomputed worst-case bound (``Σ|row coefficients| · max|v|``); a query
whose bound does not fit in signed int64 returns ``None`` and the caller
falls back to the unbounded-int reference implementation
(:func:`repro.algorithms.ref.update_vals_scaled`) -- results are bit-equal
whenever both paths run (verified in tests).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..core.coalition import (
    iter_members,
    iter_subsets,
    popcount,
    scaled_shapley_weights,
)

__all__ = ["ScaledShapleySolver"]

_INT64_CAP = 1 << 62


class _Plan:
    """Per-mask data: members, value-row gather index, coefficient matrix,
    and the worst-case row magnitude for the overflow guard."""

    __slots__ = ("members", "rows", "coef", "row_weight")

    def __init__(self, mask: int, index: Mapping[int, int]):
        members = list(iter_members(mask))
        size = len(members)
        weights = scaled_shapley_weights(size)
        subs = [s for s in iter_subsets(mask) if s]
        self.members = members
        self.rows = np.array([index[s] for s in subs], dtype=np.intp)
        coef = np.zeros((size, len(subs)), dtype=np.int64)
        for j, sub in enumerate(subs):
            s = popcount(sub)
            w_in = weights[s]
            w_out = weights[s + 1] if s < size else 0
            for i, u in enumerate(members):
                coef[i, j] = w_in if sub & (1 << u) else -w_out
        self.coef = coef
        self.row_weight = int(np.abs(coef).sum(axis=1).max())


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
        self._index = dict(index)
        self._matrix_plans: dict[tuple[int, ...], tuple] = {}

    def matrix_plan(
        self, masks: "tuple[int, ...]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int]":
        """The cached stacked plan of one equal-size mask family:
        ``(coef (n, s, 2^s-1), value_rows (n, 2^s-1), org_cols (n, s),
        row_weight)``.  :meth:`phi_scaled_matrix` evaluates it; callers
        that fuse several size groups into one pass (the REF kernel event
        body) consume it directly."""
        plan = self._matrix_plans.get(masks)
        if plan is None:
            sizes = {m.bit_count() for m in masks}
            if len(sizes) != 1:
                raise ValueError("batched masks must share a size")
            singles = [_Plan(m, self._index) for m in masks]
            cols = np.array(
                [p.members for p in singles], dtype=np.intp
            )  # (n, s): org column of each phi slot
            plan = (
                np.stack([p.coef for p in singles]),  # (n, s, 2^s - 1)
                np.stack([p.rows for p in singles]),  # (n, 2^s - 1)
                cols,
                max(p.row_weight for p in singles),
            )
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
        batched matmul (REF evaluates a full size group per event time --
        paper Fig. 1's ``for s <- 1 to |C|`` loop): a dense
        ``(len(masks), n_orgs)`` int64 matrix of ``|C|! * phi`` (zero for
        non-members).  ``masks`` must share a popcount and should be a
        stable tuple (the stacked plan is cached per tuple);
        ``max_abs_value`` must bound ``|values[i]|`` over the rows of their
        submasks (any global bound works).  Returns ``None`` when the int64
        guard cannot certify the products (the caller falls back to exact
        big-int ``update_vals_scaled``).
        """
        coef, rows, cols, row_weight = self.matrix_plan(masks)
        if max_abs_value < 0 or row_weight * max_abs_value >= _INT64_CAP:
            return None
        phi = np.matmul(coef, values[rows][:, :, None])[:, :, 0]
        full = np.zeros((len(masks), n_orgs), dtype=np.int64)
        full[np.arange(len(masks))[:, None], cols] = phi
        return full
