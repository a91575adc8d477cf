"""CoalitionFleet: value-oracle equivalence, overflow guards, goldens.

Three layers of protection for the fleet refactor:

* **property tests** -- the fleet's vectorized psi_sp ledger returns exactly
  the per-engine ``ClusterEngine.value(t)`` (itself cross-checked against
  the original ``sum(psis(t))`` formulation) on random workloads, including
  workloads engineered to trip the int64 guard into the exact big-int path;
* **solver tests** -- the cached coefficient-matrix ``UpdateVals``
  (:class:`repro.shapley.vectorized.ScaledShapleySolver`) is bit-equal to
  the reference subset-sum ``update_vals_scaled``;
* **golden transcripts** -- the fleet-based REF / GeneralREF / RAND /
  DIRECTCONTR reproduce, job for job, the schedules of the pre-refactor
  per-algorithm implementations (captured from the seed commit).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.algorithms.direct import DirectContributionScheduler
from repro.algorithms.greedy import fifo_select
from repro.algorithms.rand import RandScheduler
from repro.algorithms.ref import (
    GeneralRefScheduler,
    RefScheduler,
    update_vals_scaled,
)
from repro.core.coalition import iter_members, iter_subsets
from repro.core.engine import ClusterEngine
from repro.core.fleet import CoalitionFleet
from repro.core.job import Job
from repro.core.organization import Organization
from repro.core.workload import Workload
from repro.shapley.vectorized import ScaledShapleySolver

from .conftest import make_workload, random_workload
from .golden_transcripts import GOLDEN


def all_masks(k: int) -> list[int]:
    return [m for m in iter_subsets((1 << k) - 1) if m]


def reference_values(workload, masks, t, horizon):
    """Per-coalition values via independent engines and the original
    O(k + #running) psis() sum -- the pre-fleet formulation."""
    out = {0: 0}
    for m in masks:
        eng = ClusterEngine(
            workload, list(iter_members(m)), horizon=horizon
        )
        eng.drive(fifo_select, until=t)
        if eng.t < t:
            eng.advance_to(t)
        out[m] = sum(eng.psis(t))
    return out


class TestFleetValueEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_values_match_per_engine_values(self, seed):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 2
        wl = random_workload(rng, n_orgs=k, n_jobs=25, max_release=15)
        masks = all_masks(k)
        horizon = 40
        fleet = CoalitionFleet(wl, masks, horizon=horizon)
        for t in (0, 3, 8, 15, 27, 39):
            got = fleet.values_at(t, select=fifo_select)
            want = reference_values(wl, masks, t, horizon)
            assert got == want, t

    @pytest.mark.parametrize("seed", range(4))
    def test_engine_o1_value_matches_psis_sum(self, seed):
        rng = np.random.default_rng(seed + 100)
        wl = random_workload(rng, n_orgs=3, n_jobs=30, max_release=20)
        eng = ClusterEngine(wl)
        while (t := eng.next_event_time()) is not None:
            eng.advance_to(t)
            assert eng.value() == sum(eng.psis(t))  # O(1) vs O(k + running)
            while eng.free_count > 0 and eng.has_waiting():
                eng.start_next(fifo_select(eng))
                assert eng.value() == sum(eng.psis(eng.t))

    def test_values_array_aligned_with_masks(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=6)
        masks = all_masks(3)
        fleet = CoalitionFleet(wl, masks, horizon=None)
        arr = fleet.values_array(9, select=fifo_select)
        assert arr is not None
        by_mask = fleet.values_at(9)
        assert [by_mask[m] for m in fleet.masks] == arr.tolist()

    def test_retrospective_query_uses_exact_path(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2))
        late = fleet.values_at(20, select=fifo_select)
        early = fleet.values_at(7, select=fifo_select)  # engines now past 7
        want = reference_values(wl, all_masks(2), 7, None)
        assert early == want
        assert late[3] >= early[3]

    def test_overflow_guard_falls_back_to_exact_ints(self):
        """Huge sizes/releases push psi_sp beyond int64; results must equal
        the engines' unbounded-int arithmetic exactly."""
        big = 1 << 32
        wl = make_workload(
            [1, 1],
            [
                (0, 0, big),
                (big, 0, big),
                (0, 1, 2 * big),
            ],
        )
        t = 3 * big
        masks = all_masks(2)
        fleet = CoalitionFleet(wl, masks)
        got = fleet.values_at(t, select=fifo_select)
        want = reference_values(wl, masks, t, None)
        assert got == want
        assert any(v > (1 << 62) for v in got.values())  # guard really trips
        assert fleet.values_array(t) is None

    def test_policy_scheduler_accepts_one_shot_member_iterators(self):
        """Regression: `members` may be a generator; it must be consumed
        exactly once (the seed passed it straight to ClusterEngine)."""
        from repro.algorithms.greedy import GreedyFifoScheduler

        wl = make_workload([1, 1], [(0, 0, 1), (0, 1, 2)])
        r = GreedyFifoScheduler().run(wl, members=(u for u in [0, 1]))
        assert r.members == (0, 1)
        assert len(r.schedule) == 2
        empty = GreedyFifoScheduler().run(wl, members=iter(()))
        assert empty.members == () and len(empty.schedule) == 0

    def test_huge_times_with_empty_ledger_fall_back_cleanly(self):
        """Regression: t*t+t beyond int64 must trip the guard even when no
        job has ever started (all column maxima still zero), instead of
        raising OverflowError inside the numpy expression."""
        far = 4_000_000_000  # t^2 overflows int64, t itself does not
        wl = make_workload([1, 1, 1, 1, 1], [(far, u, 1) for u in range(5)])
        masks = all_masks(5)
        fleet = CoalitionFleet(wl, masks)
        assert fleet.values_array(far) is None
        vals = fleet.values_at(far, select=fifo_select)
        assert all(vals[m] == 0 for m in masks)  # released at t: psi = 0
        # and the full REF recursion (k >= VECTORIZE_MIN_K) survives it
        result = RefScheduler().run(wl)
        assert len(result.schedule) == 5

    def test_add_mask_is_idempotent_and_lazy(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        fleet = CoalitionFleet(wl)
        assert len(fleet) == 0
        e1 = fleet.add_mask(0b101)
        assert fleet.add_mask(0b101) is e1
        with pytest.raises(ValueError):
            fleet.add_mask(0)
        fleet.add_mask(0b011)
        assert fleet.masks == (0b101, 0b011)
        vals = fleet.values_at(12, select=fifo_select)
        assert vals == reference_values(wl, [0b101, 0b011], 12, None)

    @pytest.mark.parametrize("backend", ["kernel", "engines"])
    def test_ingest_refuses_an_org_no_coalition_covers(self, backend):
        """The covered-org union is cached; it must follow add_mask and
        remove_mask."""
        wl = make_workload([1, 1, 1], [(0, 0, 2), (1, 1, 1)])
        fleet = CoalitionFleet(wl, [0b001, 0b011], backend=backend)
        stray = Job(3, 2, 0, 1)
        with pytest.raises(ValueError, match="covers org 2"):
            fleet.submit(stray)
        fleet.add_mask(0b110)
        fleet.submit(stray)
        fleet.remove_mask(0b110)
        with pytest.raises(ValueError, match="covers org 2"):
            fleet.submit(Job(4, 2, 1, 1))
        fleet.submit(Job(4, 1, 1, 1))  # still covered by 0b011


class TestScaledShapleySolver:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_reference_update_vals(self, k):
        rng = np.random.default_rng(k)
        grand = (1 << k) - 1
        masks = all_masks(k)
        index = {m: i for i, m in enumerate(masks)}
        values = {0: 0}
        arr = np.zeros(len(masks), dtype=np.int64)
        for m in masks:
            v = int(rng.integers(0, 10_000))
            values[m] = v
            arr[index[m]] = v
        solver = ScaledShapleySolver(index)
        by_size: dict[int, list[int]] = {}
        for m in masks:
            by_size.setdefault(m.bit_count(), []).append(m)
        for group in by_size.values():
            phi = solver.phi_scaled_matrix(tuple(group), arr, 10_000, k)
            assert phi.shape == (len(group), k)
            for m, row in zip(group, phi.tolist()):
                want = update_vals_scaled(m, values)
                assert row == [want.get(u, 0) for u in range(k)], m
        with pytest.raises(ValueError):
            solver.phi_scaled_matrix((1, 3), arr, 10, k)

    def test_guard_returns_none_on_possible_overflow(self):
        index = {1: 0, 2: 1, 3: 2}
        solver = ScaledShapleySolver(index)
        arr = np.array([1, 1, 1], dtype=np.int64)
        assert solver.phi_scaled_matrix((3,), arr, 1 << 63, 2) is None
        assert solver.phi_scaled_matrix((3,), arr, 100, 2) is not None


class TestEngineFreeSet:
    """The lazy-deletion free-machine set (DIRECTCONTR's O(1) explicit
    machine choice) must stay consistent with the min-heap."""

    def test_explicit_then_default_start_skips_stale_heap_entry(self):
        wl = make_workload([3], [(0, 0, 5), (0, 0, 5), (0, 0, 5)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        assert eng.free_machines() == [0, 1, 2]
        eng.start_next(0, machine=1)  # heap entry for 1 goes stale
        assert eng.free_machines() == [0, 2]
        a = eng.start_next(0)  # default: lowest free id
        b = eng.start_next(0)  # must skip the stale 1
        assert (a.machine, b.machine) == (0, 2)
        assert eng.free_count == 0
        with pytest.raises(ValueError):
            eng.start_next(0, machine=1)

    def test_freed_machine_is_reusable_either_way(self):
        wl = make_workload([2], [(0, 0, 2), (0, 0, 4), (2, 0, 1), (2, 0, 1)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        eng.start_next(0, machine=0)
        eng.start_next(0, machine=1)
        eng.advance_to(2)  # machine 0 free again
        assert eng.free_machines() == [0]
        e = eng.start_next(0, machine=0)
        assert e.machine == 0
        eng.advance_to(3)
        assert eng.free_machines() == [0]
        assert eng.start_next(0).machine == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_machine_choices_keep_invariants(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=2, n_jobs=20, max_release=10,
                             machine_counts=[2, 2])
        eng = ClusterEngine(wl)
        while (t := eng.next_event_time()) is not None:
            eng.advance_to(t)
            while eng.free_count > 0 and eng.has_waiting():
                machine = int(rng.choice(eng.free_machines()))
                eng.start_next(fifo_select(eng), machine=machine)
        assert eng.done()
        eng.schedule().validate(wl)


def _transcript(result):
    return [
        (e.start, e.machine, e.job.org, e.job.index, e.job.size)
        for e in result.schedule
    ]


def _k3_workload(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    return random_workload(
        rng, n_orgs=3, n_jobs=14, max_release=12,
        sizes=(1, 2, 3), machine_counts=[1, 2, 1],
    )


class TestGoldenTranscripts:
    """The fleet-based algorithms reproduce the seed implementations'
    schedules (and REF's exact contribution fractions) bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ref(self, seed):
        wl = _k3_workload(seed)
        g = GOLDEN[f"k3_seed{seed}"]
        assert _transcript(RefScheduler().run(wl)) == g["ref"]
        assert _transcript(RefScheduler(horizon=10).run(wl)) == g["ref_h10"]

    @pytest.mark.parametrize("seed", range(4))
    def test_ref_contributions(self, seed):
        wl = _k3_workload(seed)
        r = RefScheduler(collect_contributions=True).run(wl)
        want = [
            Fraction(n, d)
            for n, d in GOLDEN[f"k3_seed{seed}"]["ref_contrib"]
        ]
        assert r.meta["contributions"] == want

    @pytest.mark.parametrize("seed", range(4))
    def test_general_ref(self, seed):
        wl = _k3_workload(seed)
        got = _transcript(GeneralRefScheduler().run(wl))
        assert got == GOLDEN[f"k3_seed{seed}"]["genref"]

    @pytest.mark.parametrize("seed", range(4))
    def test_rand(self, seed):
        wl = _k3_workload(seed)
        got = _transcript(RandScheduler(n_orderings=5, seed=seed).run(wl))
        assert got == GOLDEN[f"k3_seed{seed}"]["rand"]

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_contr(self, seed):
        wl = _k3_workload(seed)
        g = GOLDEN[f"k3_seed{seed}"]
        exact = DirectContributionScheduler(seed=seed).run(wl)
        faithful = DirectContributionScheduler(
            seed=seed, mode="faithful"
        ).run(wl)
        assert _transcript(exact) == g["direct_exact"]
        assert _transcript(faithful) == g["direct_faithful"]

    def test_k4(self):
        rng = np.random.default_rng(99)
        wl = random_workload(
            rng, n_orgs=4, n_jobs=16, max_release=10,
            sizes=(1, 2, 4), machine_counts=[1, 1, 2, 1],
        )
        g = GOLDEN["k4_seed99"]
        assert _transcript(RefScheduler().run(wl)) == g["ref"]
        got = _transcript(RandScheduler(n_orderings=6, seed=7).run(wl))
        assert got == g["rand"]


class TestRefactoredConsumersUseFleet:
    """Guard the architecture: no algorithm module owns a private
    ``dict[mask, ClusterEngine]`` anymore."""

    def test_no_private_engine_dicts_in_algorithm_modules(self):
        import inspect

        import repro.algorithms.direct as direct
        import repro.algorithms.rand as rand
        import repro.algorithms.ref as ref

        for mod in (ref, rand, direct):
            src = inspect.getsource(mod)
            assert "ClusterEngine(" not in src, mod.__name__

    def test_ref_run_exposes_fleet(self):
        wl = make_workload([1, 1], [(0, 0, 1), (0, 1, 2)])
        from repro.algorithms.base import members_mask
        from repro.algorithms.ref import RefRun

        members, grand = members_mask(wl, None)
        run = RefRun(wl, members, grand, horizon=None)
        run.drive()
        assert isinstance(run.fleet, CoalitionFleet)
        assert set(run.fleet.masks) == {1, 2, 3}
