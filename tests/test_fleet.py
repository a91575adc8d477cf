"""CoalitionFleet: value-oracle equivalence, overflow guards, goldens.

Three layers of protection for the fleet refactor:

* **property tests** -- the fleet's values equal independent engines'
  ``ClusterEngine.value(t)`` (itself cross-checked against the original
  ``sum(psis(t))`` formulation) and the kernel's on random workloads,
  online submits and retrospective queries included, and stay exact at
  times far past int64;
* **solver tests** -- the cached coefficient-matrix ``UpdateVals``
  (:class:`repro.shapley.vectorized.ScaledShapleySolver`) is bit-equal to
  the reference subset sum ``shapley_exact_scaled`` (Eq. 1);
* **golden transcripts** -- the fleet-based REF / GeneralREF / RAND /
  DIRECTCONTR reproduce, job for job, the schedules of the pre-refactor
  per-algorithm implementations (captured from the seed commit).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import fill_capacity
from repro.algorithms.direct import DirectContributionScheduler
from repro.algorithms.greedy import fifo_select
from repro.algorithms.rand import RandScheduler
from repro.algorithms.ref import GeneralRefScheduler, RefScheduler
from repro.core.engine import ClusterEngine
from repro.core.fleet import CoalitionFleet
from repro.core.coalition import iter_subsets, subsets_by_size
from repro.core.job import Job
from repro.core.workload import Workload
from repro.service import ClusterService
from repro.shapley.exact import shapley_exact_scaled
from repro.shapley.vectorized import ScaledShapleySolver

from .conftest import (
    all_masks,
    k3_workload,
    make_workload,
    random_workload,
    reference_values,
    transcript,
)
from .golden_transcripts import GOLDEN


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
        """Regression: a query where t*t+t is beyond int64 and no job has
        ever started must not raise OverflowError; the engines answer
        exact zeros."""
        far = 4_000_000_000  # t^2 overflows int64, t itself does not
        wl = make_workload([1, 1, 1, 1, 1], [(far, u, 1) for u in range(5)])
        masks = all_masks(5)
        fleet = CoalitionFleet(wl, masks)
        assert fleet.kernel is None
        assert fleet.values_array(far).tolist() == [0] * len(masks)
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


@st.composite
def online_queries(draw):
    """A k = 2..4 instance whose jobs released after ``cut`` arrive online,
    increasing query times, retrospective ones after them, and whether the
    engines are driven by FIFO or advanced in lockstep."""
    k = draw(st.integers(2, 4))
    machines = draw(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)
    )
    triples = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, 30),
                    st.integers(0, k - 1),
                    st.integers(1, 6),
                ),
                min_size=1,
                max_size=20,
            )
        )
    )
    cut = draw(st.integers(-1, 30))
    times = sorted(
        set(draw(st.lists(st.integers(0, 45), min_size=1, max_size=6)))
    )
    retro = draw(st.lists(st.integers(0, times[-1]), max_size=4))
    return machines, triples, cut, times, retro, draw(st.booleans())


class TestEngineValuePath:
    """A per-engine fleet brings each engine to ``t`` and reads its
    ``value(t)``; the kernel (a separate implementation) and independent
    FIFO engines are the oracles."""

    @settings(max_examples=80, deadline=None)
    @given(case=online_queries())
    def test_engines_match_kernel_and_reference(self, case):
        machines, triples, cut, times, retro, fifo = case
        full = make_workload(machines, triples)
        masks = all_masks(len(machines))
        known = Workload(
            full.organizations, [j for j in full.jobs if j.release <= cut]
        )
        online = [j for j in full.jobs if j.release > cut]
        ef = CoalitionFleet(known, masks, backend="engines")
        kf = CoalitionFleet(known, masks, backend="kernel")
        select = fifo_select if fifo else None
        keys = dict.fromkeys(range(len(machines)), 0)

        def check(t):
            got = ef.values_at(t, select=select)
            arr = ef.values_array(t, select=select)
            assert got == kf.values_at(t, select=select), t
            assert dict(zip(masks, arr.tolist())) == {m: got[m] for m in masks}
            if fifo:
                assert got == reference_values(full, masks, t, None), t

        def check_next_event():
            # the decision time: one kernel scalar, the engines fleet's
            # minimum, and that minimum taken engine by engine here
            ahead = [
                t
                for m in masks
                if (t := ef.engine(m).next_event_time()) is not None
            ]
            nxt = min(ahead, default=None)
            assert kf.next_event_time() == ef.next_event_time() == nxt

        check_next_event()
        for t in times:
            while online and online[0].release <= t:  # never into the past
                job = online.pop(0)
                ef.submit(job)
                kf.submit(job)
            check(t)
            if not fifo:  # lockstep: start the waiting jobs by hand
                for m in masks:
                    for fleet in (ef, kf):
                        fill_capacity(fleet, m, keys)
            check_next_event()
        for job in online:
            ef.submit(job)
            kf.submit(job)
        check_next_event()
        for t in retro:
            check(t)
            check_next_event()
        assert ef.kernel is None
        assert kf.kernel is not None, kf.materialize_reason


def solver_layout(name: str) -> "tuple[int, list[int]]":
    """``(n_orgs, fleet masks)`` of a REF layout: every subset of ``k``
    organizations (``"k3"``), a service's fleet after one ``join_org``
    (the new organization's coalitions are appended after the old grand
    coalition, out of size order), or the subsets of the sparse grand
    coalition ``0b10110`` of k=5."""
    if name == "joined":
        svc = ClusterService([1, 1, 1, 1], "ref")
        svc.join_org(machines=1)
        return 5, list(svc._policy.run.fleet.masks)
    if name == "sparse":
        return 5, [m for m in iter_subsets(0b10110) if m]
    k = int(name[1:])
    return k, all_masks(k)


class TestScaledShapleySolver:
    @pytest.mark.parametrize(
        "layout", ["k1", "k2", "k3", "k5", "joined", "sparse"]
    )
    def test_matches_shapley_exact_scaled(self, layout):
        k, masks = solver_layout(layout)
        rng = np.random.default_rng(k + len(masks))
        index = {m: i for i, m in enumerate(masks)}
        assert max(masks) in index  # the solver sees every coalition
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
                assert row == shapley_exact_scaled(values, k, grand=m)[0], m
        with pytest.raises(ValueError):
            solver.phi_scaled_matrix((1, 3), arr, 10, k)

    def test_one_coefficient_matrix_per_size(self):
        """Every group of a size shares one ``(s, 2^s - 1)`` matrix, so
        k=12's coefficients stay far below the 32 MiB of one stacked copy
        per mask."""
        k = 12
        masks = all_masks(k)
        solver = ScaledShapleySolver({m: i for i, m in enumerate(masks)})
        coefs = {}
        for group in subsets_by_size((1 << k) - 1)[1:]:
            size = group[0].bit_count()
            coef, rows, cols, _ = solver.matrix_plan(tuple(group))
            assert coef.shape == (size, (1 << size) - 1)
            assert rows.shape == (len(group), (1 << size) - 1)
            assert cols.shape == (len(group), size)
            half = tuple(group[: len(group) // 2 + 1])
            assert solver.matrix_plan(half)[0] is coef
            coefs[id(coef)] = coef
        assert len(coefs) == k
        assert sum(c.nbytes for c in coefs.values()) < 1 << 20

    def test_submask_outside_the_index_raises(self):
        solver = ScaledShapleySolver({1: 0, 2: 1, 3: 2, 4: 3})
        solver.matrix_plan((3,))
        with pytest.raises(KeyError):
            solver.matrix_plan((5,))  # {0, 2} has no row
        with pytest.raises(KeyError):
            solver.matrix_plan((9, 10))  # org 3 has no row at all

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


class TestGoldenTranscripts:
    """The fleet-based algorithms reproduce the seed implementations'
    schedules (and REF's exact contribution fractions) bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ref(self, seed):
        wl = k3_workload(seed)
        g = GOLDEN[f"k3_seed{seed}"]
        assert transcript(RefScheduler().run(wl)) == g["ref"]
        assert transcript(RefScheduler(horizon=10).run(wl)) == g["ref_h10"]

    @pytest.mark.parametrize("seed", range(4))
    def test_ref_contributions(self, seed):
        wl = k3_workload(seed)
        r = RefScheduler(collect_contributions=True).run(wl)
        want = [
            Fraction(n, d)
            for n, d in GOLDEN[f"k3_seed{seed}"]["ref_contrib"]
        ]
        assert r.meta["contributions"] == want

    @pytest.mark.parametrize("seed", range(4))
    def test_general_ref(self, seed):
        wl = k3_workload(seed)
        got = transcript(GeneralRefScheduler().run(wl))
        assert got == GOLDEN[f"k3_seed{seed}"]["genref"]

    @pytest.mark.parametrize("seed", range(4))
    def test_rand(self, seed):
        wl = k3_workload(seed)
        got = transcript(RandScheduler(n_orderings=5, seed=seed).run(wl))
        assert got == GOLDEN[f"k3_seed{seed}"]["rand"]

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_contr(self, seed):
        wl = k3_workload(seed)
        g = GOLDEN[f"k3_seed{seed}"]
        exact = DirectContributionScheduler(seed=seed).run(wl)
        faithful = DirectContributionScheduler(
            seed=seed, mode="faithful"
        ).run(wl)
        assert transcript(exact) == g["direct_exact"]
        assert transcript(faithful) == g["direct_faithful"]

    def test_k4(self):
        rng = np.random.default_rng(99)
        wl = random_workload(
            rng, n_orgs=4, n_jobs=16, max_release=10,
            sizes=(1, 2, 4), machine_counts=[1, 1, 2, 1],
        )
        g = GOLDEN["k4_seed99"]
        assert transcript(RefScheduler().run(wl)) == g["ref"]
        got = transcript(RandScheduler(n_orderings=6, seed=7).run(wl))
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
