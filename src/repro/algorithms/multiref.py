"""Batched REF: many independent instances through one fused kernel.

The pipeline's dominant cost is the REF reference run of every instance
(each one a full 2^k-subcoalition simulation).  This module stacks the
subcoalition fleets of *many* grand-coalition REF runs into one kernel
(:meth:`~repro.core.kernel.FleetKernel.batch`) and drives it with the
serving path's own event body,
:func:`~repro.algorithms.ref.fused_round`: each jagged sweep moves every
instance to its own next event, then one round schedules them all -- one
psi-ledger evaluation at each row's instance clock, one matmul per
subset-size group holding a contested row (broadcast over instances), one
batched ``fill_rows`` -- per *sweep*, not per instance-event.

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

from ..core.coalition import subsets_by_size
from ..core.kernel import _QUERY_CAP, FleetKernel, instance_bound
from ..core.schedule import Schedule
from ..core.workload import Workload
from .base import SchedulerResult, members_mask
from .ref import (
    KEY_CAP,
    PHI_CAP,
    _solver_for,
    fused_plan,
    fused_round,
    guard_coefficients,
)

__all__ = ["ref_results_batched", "ref_batch", "batchable"]


@lru_cache(maxsize=8)
def _layout_for(k: int):
    """Shared per-k REF layout: subcoalition masks (size-ascending, grand
    coalition last -- the exact row order of the per-instance path), their
    size groups, each mask's row in one instance, and the solver over
    them."""
    groups = [tuple(g) for g in subsets_by_size((1 << k) - 1)[1:]]
    nonempty = [m for group in groups for m in group]
    index = {m: i for i, m in enumerate(nonempty)}
    return nonempty, groups, index, _solver_for(tuple(nonempty))


def batchable(workload: Workload, horizon: "int | None") -> bool:
    """Whether this instance is admitted to a fused batch: per-instance
    int64 certification, and the REF coefficient guard satisfied
    *statically* with the certified bound in place of runtime maxima
    (strictly stronger than the per-round runtime guard, so admitted
    instances never trip it).  Every ``k`` is admitted: the batch axis
    amortizes the array overhead that makes the single-instance path
    prefer dict arithmetic below ``VECTORIZE_MIN_K``."""
    bound = instance_bound(workload, horizon)
    if bound >= _QUERY_CAP:
        return False
    max_rw, max_fact = guard_coefficients(workload.n_orgs)
    if max_rw * bound >= PHI_CAP:
        return False
    return max_rw * bound + max_fact * bound < KEY_CAP


def ref_batch(
    items: Sequence["tuple[Workload, int | None]"],
) -> "tuple[FleetKernel, dict]":
    """Run REF over admitted same-``k`` ``(workload, horizon)`` instances
    in one kernel, to every horizon or exhaustion.  Returns the kernel and
    :func:`~repro.algorithms.ref.fused_round`'s counts; the run stops at a
    declined round (``unsafe`` or ``guard``), which :func:`batchable`
    rules out."""
    nonempty, groups, index, solver = _layout_for(items[0][0].n_orgs)
    kern = FleetKernel.batch([(wl, nonempty, h) for wl, h in items])
    plan = fused_plan(solver, groups, index, kern.row0)
    seen = dict.fromkeys(("forced", "contested", "unsafe", "guard"), 0)
    while kern.sweep() is not None:
        if not fused_round(kern, plan, seen):
            break
    return kern, seen


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
        kern, seen = ref_batch([items[i] for i in idxs])
        if seen["unsafe"] or seen["guard"]:
            continue  # the per-instance path takes the whole batch
        grand = len(_layout_for(k)[0]) - 1  # the last row of an instance
        for b, i in enumerate(idxs):
            wl, horizon = items[i]
            members_t, _ = members_mask(wl, None)
            row = int(kern.row0[b]) + grand
            out[i] = SchedulerResult(
                algorithm="REF",
                workload=wl,
                members=members_t,
                schedule=Schedule(kern.row_entries(row)),
                horizon=horizon,
                meta={},
            )
    return out
