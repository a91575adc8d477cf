"""``ref_hier``: hierarchical block-decomposed Shapley fair scheduling.

Exact REF needs one engine per nonempty subcoalition (``2^k``), which caps
``k`` at 10.  The hierarchical mode partitions the ``k`` organizations into
consecutive blocks of at most ``block_size`` members and plays *two* exact
(or near-exact) games instead of one exponential game:

* a **within-block game** per block ``B``: the characteristic function
  restricted to subsets of ``B`` (``2^|B|`` engines per block);
* an **across-block game** whose players are the blocks themselves and
  whose coalitions are unions of whole blocks (``2^(#blocks)`` engines when
  ``#blocks <= max_exact_blocks``, else ``N`` sampled block-joining orders
  a la RAND).

The per-organization contribution is the standard two-level decomposition

``phi_u = Sh_u(w_B)  +  (Phi_B - w_B(B)) / |B|``,

i.e. the exact Shapley share of ``u`` inside its own block plus an equal
split of the block's *synergy* -- the across-block Shapley value of block
``B`` minus the block's stand-alone value.  When the across-block game is
exact this preserves efficiency (``sum_u phi_u = v(grand)``) because both
levels' Shapley values are efficient; it is *not* the true ``k``-player
Shapley value (cross-block asymmetries inside a block are averaged), which
is why ``ref_hier`` registers with ``exact=False``.  All key comparisons
use :class:`fractions.Fraction` -- no floating point can flip a decision.

Engine budget: ``#blocks * 2^block_size + 2^(#blocks)`` coalitions, e.g.
k=100 with block_size=10 is ~11k engines versus REF's 2^100.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

import numpy as np

from ..algorithms.base import (
    Scheduler,
    SchedulerResult,
    drive_fleet,
    fill_capacity,
    members_mask,
)
from ..algorithms.greedy import fifo_select
from ..core.coalition import iter_subsets
from ..core.fleet import CoalitionFleet
from ..core.workload import Workload
from ..shapley.exact import shapley_exact_scaled
from ..shapley.sampling import SampledPrefixes, sample_member_orderings

__all__ = ["HierRun", "HierScheduler", "org_blocks"]


def org_blocks(
    members: "tuple[int, ...]", block_size: int
) -> "tuple[tuple[int, ...], ...]":
    """Partition ``members`` into consecutive blocks of ``<= block_size``.

    Deterministic (id order), so the decomposition -- and therefore every
    scheduling decision -- is reproducible from the member set alone.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    return tuple(
        tuple(members[i : i + block_size])
        for i in range(0, len(members), block_size)
    )


class HierRun:
    """One hierarchical run: block decomposition, oracle fleet, event body.

    Mirrors :class:`~repro.algorithms.rand.RandRun`: construction draws
    nothing but sets up the coalition oracle (within-block subsets plus
    across-block unions); :meth:`drive` runs the carrier's decision loop.
    Batch-only -- the across-block coalition set is fixed at construction,
    so there is no online join/leave story (``step=False`` in the
    registry).
    """

    def __init__(
        self,
        workload: Workload,
        members_t: "tuple[int, ...]",
        grand_mask: int,
        rng: "np.random.Generator",
        horizon: "int | None",
        *,
        block_size: int = 10,
        n_orderings: int = 15,
        max_exact_blocks: int = 10,
    ) -> None:
        if n_orderings < 1:
            raise ValueError("need at least one sampled block ordering")
        self.members_t = members_t
        self.grand_mask = grand_mask
        self.blocks = org_blocks(members_t, block_size)
        self.block_of = {
            u: b for b, block in enumerate(self.blocks) for u in block
        }
        self.block_masks = tuple(
            sum(1 << u for u in block) for block in self.blocks
        )
        n_blocks = len(self.blocks)
        self.n_blocks = n_blocks
        self.exact_across = n_blocks <= max_exact_blocks
        coalitions: set[int] = set()
        for bmask in self.block_masks:
            for sub in iter_subsets(bmask):
                if sub:
                    coalitions.add(sub)
        # map across-game coalitions (bitmasks over *block indices*) to
        # org-level union masks
        self._union: dict[int, int] = {0: 0}
        if self.exact_across:
            self.block_prefixes = None
            self.n_orderings = 1
            for bsub in iter_subsets((1 << n_blocks) - 1):
                if bsub:
                    self._union[bsub] = self._union_of(bsub)
        else:
            orderings = sample_member_orderings(
                np.arange(n_blocks, dtype=np.int64), n_orderings, rng
            )
            self.block_prefixes = SampledPrefixes(n_blocks, orderings)
            self.n_orderings = n_orderings
            for bsub in self.block_prefixes.masks:
                if bsub:
                    self._union[bsub] = self._union_of(bsub)
        coalitions.update(m for m in self._union.values() if m)
        self.sampled = sorted(coalitions)
        self.oracle = CoalitionFleet(workload, self.sampled, horizon=horizon)
        self.fleet = CoalitionFleet(workload, (grand_mask,), horizon=horizon)
        self._n_orgs = workload.n_orgs

    @property
    def grand(self):
        """The carrier's grand engine, asked for afresh: a held kernel
        view goes stale when a pool change materializes the carrier."""
        return self.fleet.engine(self.grand_mask)

    def _union_of(self, block_subset: int) -> int:
        mask = 0
        b = 0
        while block_subset >> b:
            if (block_subset >> b) & 1:
                mask |= self.block_masks[b]
            b += 1
        return mask

    def drive(self) -> int:
        """Run the carrier's decision loop to exhaustion / the horizon."""
        return drive_fleet(self.fleet, self._on_event)

    def keys_at(self, t: int) -> "dict[int, Fraction]":
        """The exact-rational ``phi_u - psi_u`` keys at decision time ``t``
        under the two-level decomposition (the quantity Fig. 3's
        SelectAndSchedule maximizes)."""
        values = self.oracle.values_at(t, select=fifo_select)
        psis = self.grand.psis(t)
        vf = lambda m: 0 if m == 0 else values[m]  # noqa: E731

        # across-block game: Phi_B as (numerator, denominator)
        if self.exact_across:
            shA, denomA = shapley_exact_scaled(
                lambda bm: vf(self._union[bm]), self.n_blocks
            )
        else:
            valsA = {bm: vf(self._union[bm]) for bm in self.block_prefixes.masks}
            shA = self.block_prefixes.estimate_scaled(valsA)
            denomA = self.block_prefixes.n

        keys: dict[int, Fraction] = {}
        for b, (block, bmask) in enumerate(zip(self.blocks, self.block_masks)):
            shW, denomW = shapley_exact_scaled(
                vf, self._n_orgs, grand=bmask
            )
            synergy = Fraction(shA[b], denomA) - vf(bmask)
            share = synergy / len(block)
            for u in block:
                keys[u] = Fraction(shW[u], denomW) + share - psis[u]
        return keys

    def _on_event(self, fleet: CoalitionFleet, t: int) -> None:
        fleet.advance_all(t)
        grand = self.grand
        if grand.free_count == 0 or not grand.has_waiting():
            return
        fill_capacity(fleet, self.grand_mask, self.keys_at(t))


class HierScheduler(Scheduler):
    """Hierarchical block-decomposed fair scheduler (``ref_hier``).

    Parameters
    ----------
    block_size:
        Maximum organizations per exact block (``<= 10``; each block costs
        ``2^block_size`` engines).
    n_orderings:
        Sampled block-joining orders used only when the number of blocks
        exceeds ``max_exact_blocks``.
    seed:
        Seed for the block-ordering draws; unused (but still accepted) in
        the fully exact regime, so results there are seed-independent.
    max_exact_blocks:
        Block-count threshold below which the across-block game is exact.
    """

    name = "RefHier"

    def __init__(
        self,
        block_size: int = 10,
        n_orderings: int = 15,
        seed: "int | np.random.Generator | None" = 0,
        horizon: "int | None" = None,
        *,
        max_exact_blocks: int = 10,
    ):
        if not 1 <= block_size <= 10:
            raise ValueError("block_size must be in [1, 10]")
        self.block_size = int(block_size)
        self.n_orderings = int(n_orderings)
        self.horizon = horizon
        self.max_exact_blocks = int(max_exact_blocks)
        self._seed = seed
        self.name = f"RefHier(b={block_size})"

    def run(
        self, workload: Workload, members: "Iterable[int] | None" = None
    ) -> SchedulerResult:
        """Build the hierarchical fair schedule for ``members``."""
        members_t, grand_mask = members_mask(workload, members)
        rng = (
            self._seed
            if isinstance(self._seed, np.random.Generator)
            else np.random.default_rng(self._seed)
        )
        run = HierRun(
            workload,
            members_t,
            grand_mask,
            rng,
            self.horizon,
            block_size=self.block_size,
            n_orderings=self.n_orderings,
            max_exact_blocks=self.max_exact_blocks,
        )
        run.drive()
        return SchedulerResult(
            algorithm=self.name,
            workload=workload,
            members=members_t,
            schedule=run.grand.schedule(),
            horizon=self.horizon,
            meta={
                "block_size": self.block_size,
                "n_blocks": run.n_blocks,
                "exact_across": run.exact_across,
                "n_coalitions": len(run.sampled),
            },
        )
