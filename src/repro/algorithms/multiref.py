"""Batched REF: many independent instances through one fused kernel.

The pipeline's dominant cost is the REF reference run of every instance
(each one a full 2^k-subcoalition simulation).  This module drives a
:class:`~repro.core.multikernel.MultiInstanceKernel` whose rows are the
subcoalition fleets of *many* grand-coalition REF runs at once, replaying
the fused event body of ``RefRun._on_event_kernel`` with per-row instance
clocks: one psi-ledger evaluation, one matmul per subset-size group
(broadcast over instances), one batched ``fill_rows`` round -- per *sweep*,
not per instance-event.

Bit-identity contract: for every admitted instance the returned schedule is
exactly ``RefScheduler(horizon).run(workload).schedule``.  Instances that
are not admitted (failing the per-instance int64 certification or the
static coefficient guard) come back as ``None`` and the caller falls back
to the stock per-instance path, which carries its own exact fallback --
one oversized instance never evicts or perturbs its batch siblings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ..core.coalition import subsets_by_size
from ..core.multikernel import MultiInstanceKernel, instance_bound
from ..core.kernel import _QUERY_CAP
from ..core.schedule import Schedule
from ..core.workload import Workload
from .base import SchedulerResult, members_mask
from .ref import _solver_for, fused_plan

__all__ = ["ref_results_batched", "batchable"]

_PHI_CAP = 1 << 62
_KEY_CAP = 1 << 63


@lru_cache(maxsize=8)
def _layout_for(k: int):
    """Shared per-k REF layout: subcoalition masks (size-ascending, grand
    coalition last -- the exact row order of the per-instance path) and
    :func:`~repro.algorithms.ref.fused_plan` over them (per-group plans
    with rows relative to one instance, per-row |C|! factors, the static
    guard coefficients)."""
    groups = [tuple(g) for g in subsets_by_size((1 << k) - 1)[1:]]
    nonempty = [m for group in groups for m in group]
    index = {m: i for i, m in enumerate(nonempty)}
    solver = _solver_for(tuple(nonempty))
    return nonempty, *fused_plan(solver, groups, index, len(nonempty))


def batchable(workload: Workload, horizon: "int | None") -> bool:
    """Whether this instance is admitted to a fused batch: per-instance
    int64 certification, and the REF coefficient guard satisfied
    *statically* with the certified bound in place of runtime maxima
    (strictly stronger than the per-event runtime guard, so admitted
    instances never trip it).  Every ``k`` is admitted: the batch axis
    amortizes the array overhead that makes the single-instance path
    prefer dict arithmetic below ``VECTORIZE_MIN_K``."""
    bound = instance_bound(workload, horizon)
    if bound >= _QUERY_CAP:
        return False
    _, _, _, max_rw, max_fact = _layout_for(workload.n_orgs)
    if max_rw * bound >= _PHI_CAP:
        return False
    return max_rw * bound + max_fact * bound < _KEY_CAP


def ref_results_batched(
    items: Sequence["tuple[Workload, int | None]"],
) -> "list[SchedulerResult | None]":
    """Run REF over many ``(workload, horizon)`` instances in fused batches
    (grouped by ``k``; same-k instances share one coefficient layout).
    Returns one :class:`SchedulerResult` per item, aligned with ``items``;
    ``None`` marks an instance that must run on the per-instance path."""
    out: "list[SchedulerResult | None]" = [None] * len(items)
    by_k: dict[int, list[int]] = {}
    for i, (wl, horizon) in enumerate(items):
        if batchable(wl, horizon):
            by_k.setdefault(wl.n_orgs, []).append(i)
    for k, idxs in by_k.items():
        nonempty, plans, facts_rel, _, _ = _layout_for(k)
        kern = MultiInstanceKernel(
            [(items[i][0], nonempty, items[i][1]) for i in idxs]
        )
        n_rows = len(nonempty)
        facts = np.tile(facts_rel, (len(idxs), 1))
        # per-instance row offsets lift the shared relative gather/scatter
        # indices into the stacked row space
        plans_b = []
        for coef, vrows, krows, cols in plans:
            vrows_b = vrows[None, :, :] + kern.row0[:, None, None]
            krows_b = krows[None, :] + kern.row0[:, None]
            plans_b.append((coef, vrows_b, krows_b, cols))
        while True:
            act = kern.sweep()
            if act is None:
                break
            capable = kern.capable_rows(act)
            if not capable.any():
                continue
            # each row at its own instance clock (a column); int64-exact
            # with no runtime guard: every clock is bounded by its
            # instance's certified T_i
            psis = kern.rec.psis(kern.t_inst[kern.row_inst][:, None])
            vals = psis.sum(axis=1)
            phi_full = np.zeros((kern.n, k), dtype=np.int64)
            for coef, vrows_b, krows_b, cols in plans_b:
                v = vals[vrows_b]  # (B, groups, subsets)
                phi = np.matmul(coef[None], v[:, :, :, None])[:, :, :, 0]
                phi_full[krows_b[:, :, None], cols[None, :, :]] = phi
            keys = phi_full - facts * psis
            rows = np.flatnonzero(capable)
            kern.fill_rows(rows, keys[rows])
        for b, i in enumerate(idxs):
            wl, horizon = items[i]
            grand_row = int(kern.row0[b]) + n_rows - 1
            members_t, _ = members_mask(wl, None)
            out[i] = SchedulerResult(
                algorithm="REF",
                workload=wl,
                members=members_t,
                schedule=Schedule(
                    kern.rec.row_entries(
                        grand_row, kern.jobs_flat, kern.seg_start[b]
                    )
                ),
                horizon=horizon,
                meta={},
            )
    return out
