"""FleetKernel: lockstep SoA simulation vs per-engine ground truth.

Four layers of protection for the batched kernel (DESIGN.md §8):

* **value-oracle properties** -- kernel fleets return exactly the
  per-engine values on random workloads, for both the lockstep advance and
  the batched greedy-FIFO drive, at past/present/future query times;
* **bit-identical schedules** -- every contribution-driven scheduler run
  with the kernel forced on reproduces its per-engine transcript job for
  job (the golden transcripts pin the per-engine side separately);
* **escape hatch** -- engine views answer their read members, every
  other engine member agrees on the row's materialized engine, a view
  read after materialization raises, and materialization mid-run
  reconstructs real engines whose state is indistinguishable from never
  having used the kernel at all;
* **overflow fallbacks** (ISSUE 5 satellite) -- queries past the int64
  guard fall back to exact big-int arithmetic on both backends, agreeing
  with the vectorized path right at the boundary, and workloads that fail
  the construction-time certification never engage the kernel.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ref as ref_mod
from repro.algorithms.base import fill_capacity
from repro.algorithms.direct import DirectContributionScheduler
from repro.algorithms.greedy import fifo_select
from repro.algorithms.rand import RandScheduler
from repro.algorithms.ref import GeneralRefScheduler, RefRun, RefScheduler
from repro.core import kernel as kernel_mod
from repro.core.coalition import iter_members
from repro.core.engine import ClusterEngine
from repro.core.fleet import CoalitionFleet
from repro.core.job import Job
from repro.core.kernel import (
    KERNEL_MIN_ENGINES,
    FleetKernel,
    KernelEngineView,
    RowRecord,
    kernel_certified,
)
from repro.core.workload import Workload

from .conftest import (
    all_masks,
    make_workload,
    random_workload,
    reference_values,
    transcript,
)


@pytest.fixture
def force_kernel(monkeypatch):
    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)


class TestKernelValueOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_fifo_drive_values_match_per_engine(self, seed):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 2
        wl = random_workload(rng, n_orgs=k, n_jobs=25, max_release=15)
        masks = all_masks(k)
        horizon = 40
        fleet = CoalitionFleet(wl, masks, horizon=horizon, backend="kernel")
        assert fleet.kernel is not None
        for t in (0, 3, 8, 15, 27, 39):
            got = fleet.values_at(t, select=fifo_select)
            assert got == reference_values(wl, masks, t, horizon), t

    @pytest.mark.parametrize("seed", range(4))
    def test_lockstep_advance_values_match_per_engine(self, seed):
        rng = np.random.default_rng(100 + seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=12)
        masks = all_masks(3)
        a = CoalitionFleet(wl, masks, backend="kernel")
        b = CoalitionFleet(wl, masks, backend="engines")
        for t in (0, 2, 6, 11, 19, 40):
            assert a.values_at(t) == b.values_at(t), t
            arr_a = a.values_array(t)
            arr_b = b.values_array(t)
            assert arr_a is not None and arr_b is not None
            assert arr_a.tolist() == arr_b.tolist()

    def test_retrospective_query_is_exact(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.values_at(20, select=fifo_select)  # kernel now at t=20
        early = fleet.values_at(7, select=fifo_select)
        assert early == reference_values(wl, all_masks(2), 7, None)

    def test_online_submission_matches_frozen_stream(self):
        early = [(0, 0, 2), (1, 1, 3), (4, 2, 1), (5, 0, 2)]
        late = [(11, 0, 3), (12, 1, 2), (15, 2, 4), (15, 1, 1)]
        wl_early = make_workload([1, 2, 1], early)
        wl_full = make_workload([1, 2, 1], early + late)
        late_jobs = [
            j for j in sorted(wl_full.jobs) if (j.release, j.org, j.size)
            in {(r, u, p) for r, u, p in late}
        ]
        masks = all_masks(3)
        frozen = CoalitionFleet(wl_full, masks, backend="kernel")
        fed = CoalitionFleet(wl_early, masks, backend="kernel")
        fed.values_at(5, select=fifo_select)
        for j in late_jobs:
            fed.submit(j)
        assert fed.kernel is not None  # absorbed without materializing
        for t in (10, 25, 60):
            assert fed.values_at(t, select=fifo_select) == frozen.values_at(
                t, select=fifo_select
            )

    def test_per_job_submits_match_engines(self):
        """N sequential splices == the per-engine streams -- including
        same-release jobs from different orgs, whose flat positions meet
        at an org-window boundary (lower org's window stays first)."""
        early = [(0, 0, 2), (1, 1, 3), (2, 2, 1)]
        late = [(6, 2, 2), (6, 0, 1), (6, 1, 4), (9, 0, 2), (9, 2, 5)]
        wl_early = make_workload([1, 2, 1], early)
        wl_full = make_workload([1, 2, 1], early + late)
        late_jobs = [j for j in sorted(wl_full.jobs) if j.release >= 6]
        masks = all_masks(3)
        kern = CoalitionFleet(wl_early, masks, backend="kernel")
        engines = CoalitionFleet(wl_early, masks, backend="engines")
        frozen = FleetKernel(wl_full, masks)
        kern.values_at(4, select=fifo_select)
        engines.values_at(4, select=fifo_select)
        for j in late_jobs:
            kern.submit(j)
            engines.submit(j)
        assert kern.kernel is not None
        assert kern.kernel.rel_flat.tolist() == frozen.rel_flat.tolist()
        assert kern.kernel.size_flat.tolist() == frozen.size_flat.tolist()
        for t in (6, 9, 15, 40):
            assert kern.values_at(t, select=fifo_select) == engines.values_at(
                t, select=fifo_select
            ), t


class TestKernelSchedulesBitIdentical:
    """Forced-kernel transcripts == forced-engines transcripts (the engines
    side is itself pinned by the seed golden transcripts)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ref_and_rand(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        k = 3 + seed % 3
        wl = random_workload(
            rng, n_orgs=k, n_jobs=7 * k, max_release=15,
            sizes=(1, 2, 3, 5), machine_counts=[1 + i % 2 for i in range(k)],
        )
        runs = [
            lambda: RefScheduler().run(wl),
            lambda: RefScheduler(horizon=12).run(wl),
            lambda: RandScheduler(n_orderings=9, seed=seed).run(wl),
        ]
        if k <= 4:  # Fractions path: keep runtime sane
            runs.append(lambda: GeneralRefScheduler().run(wl))
        for run in runs:
            monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
            want = transcript(run())
            monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)
            assert transcript(run()) == want

    def test_ref_contributions_identical(self, monkeypatch):
        rng = np.random.default_rng(17)
        wl = random_workload(rng, n_orgs=5, n_jobs=25, max_release=12)
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
        want = RefScheduler(collect_contributions=True).run(wl).meta
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1)
        got = RefScheduler(collect_contributions=True).run(wl).meta
        assert got["contributions"] == want["contributions"]

    def test_direct_contr_unaffected(self, force_kernel, rng):
        # single-engine fleets materialize through the PolicyScheduler loop
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=10)
        r = DirectContributionScheduler(seed=1).run(wl)
        assert len(r.schedule) == 15


class TestEngineViews:
    def _pair(self, rng, t):
        wl = random_workload(rng, n_orgs=3, n_jobs=16, max_release=10,
                             machine_counts=[2, 1, 1])
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        kf.values_at(t, select=fifo_select)
        ef.values_at(t, select=fifo_select)
        return kf, ef, masks

    def test_views_answer_the_read_api(self, rng):
        """The view answers its own members from the row; every other
        ``ClusterEngine`` member is checked on ``materialize_row(row)``,
        which rebuilds an engine from the same row arrays and log."""
        kf, ef, masks = self._pair(rng, 9)
        kern = kf.kernel
        for row, m in enumerate(masks):
            view, eng = kf.engine(m), ef.engine(m)
            assert isinstance(view, KernelEngineView)
            assert repr(view) == f"KernelEngineView(mask={m:#b})"
            assert view.t == eng.t
            assert view.members == eng.members
            assert view.free_count == eng.free_count
            assert view.has_waiting() == eng.has_waiting()
            assert view.waiting_orgs() == eng.waiting_orgs()
            assert view.running_counts() == eng.running_counts()
            assert view.start_log == eng.start_log
            assert view.schedule() == eng.schedule()
            for u in range(3):
                if u in eng.members:
                    assert view.waiting_count(u) == eng.waiting_count(u)
                else:
                    with pytest.raises(KeyError):
                        view.waiting_count(u)
            for t in (4, 9, 30):
                assert view.psis(t) == eng.psis(t), (m, t)
            got = kern.materialize_row(row)
            assert got.workload is eng.workload
            assert got.horizon == eng.horizon
            assert got.n_orgs == eng.n_orgs
            assert got.free_machines() == eng.free_machines()
            assert got.machine_owner == eng.machine_owner
            assert got.n_machines == eng.n_machines
            assert got.machine_counts() == eng.machine_counts()
            assert got.is_idle() == eng.is_idle()
            assert got.done() == eng.done()
            assert got.ledger() == eng.ledger()
            assert got.next_event_time() == eng.next_event_time()
            for t in (4, 9, 30):
                assert [got.psi(u, t) for u in eng.members] == [
                    eng.psi(u, t) for u in eng.members
                ]
                assert got.value(t) == eng.value(t)
                assert got.psis_by_machine_owner(t) == (
                    eng.psis_by_machine_owner(t)
                )
                assert got.busy_units(t) == eng.busy_units(t)
                assert got.utilization(t) == eng.utilization(t)
                for u in eng.members:
                    assert got.consumed_cpu(u, t) == eng.consumed_cpu(u, t)
            assert got.fifo_head() == eng.fifo_head()
            for u in eng.members:
                if eng.waiting_count(u):
                    assert got.head_release(u) == eng.head_release(u)
                else:
                    with pytest.raises(IndexError):
                        got.head_release(u)
                assert got.running_count(u) == eng.running_count(u)
                assert got.consumed_cpu(u) == eng.consumed_cpu(u)
            assert [
                (e.start, e.machine, e.job) for e in got.completed_log
            ] == [(e.start, e.machine, e.job) for e in eng.completed_log]
        assert kf.kernel is kern  # nothing above left the kernel

    def test_view_running_on_matches(self, rng):
        kf, ef, masks = self._pair(rng, 6)
        row = masks.index(0b111)
        got, eng = kf.kernel.materialize_row(row), ef.engine(0b111)
        for mid in eng.machine_owner:
            a, b = got.running_on(mid), eng.running_on(mid)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.job, a.start, a.machine) == (b.job, b.start, b.machine)


class TestMaterialization:
    def test_materialized_state_is_bit_identical(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=14)
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        kf.values_at(8, select=fifo_select)
        ef.values_at(8, select=fifo_select)
        kf.materialize("explicit")
        assert kf.kernel is None
        for m in masks:
            a, b = kf.engine(m), ef.engine(m)
            assert isinstance(a, ClusterEngine)
            assert a.t == b.t
            assert a._stream == b._stream
            assert a._stream_pos == b._stream_pos
            assert a._pending == b._pending
            assert a._free_set == b._free_set
            assert sorted(a._busy) == sorted(b._busy)
            assert a._done_units == b._done_units
            assert a._done_wstart == b._done_wstart
            assert a._done_units_mach == b._done_units_mach
            assert a._done_wstart_mach == b._done_wstart_mach
            assert (a._tot_units, a._tot_wstart) == (b._tot_units, b._tot_wstart)
            assert (a._run_start_sum, a._run_start_sq) == (
                b._run_start_sum, b._run_start_sq
            )
            assert a._log == b._log
            assert a._completed == b._completed
        # and the fleets keep agreeing after further driving
        for t in (12, 20, 50):
            assert kf.values_at(t, select=fifo_select) == ef.values_at(
                t, select=fifo_select
            )

    def test_held_view_goes_stale_at_materialization(self, rng):
        """A view taken before the fleet leaves the kernel raises on every
        read instead of answering from a dead kernel."""
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=6)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        view = fleet.engine(0b11)
        fleet.values_at(4, select=fifo_select)
        psis_before = view.psis(4)
        fleet.materialize("explicit")
        reads = [
            lambda: view.t, lambda: view.members, lambda: view.free_count,
            view.has_waiting, view.waiting_orgs,
            lambda: view.waiting_count(0), view.running_counts,
            lambda: view.psis(4), lambda: view.start_log, view.schedule,
        ]
        for read in reads:
            with pytest.raises(RuntimeError, match="stale view"):
                read()
        assert fleet.engine(0b11).psis(4) == psis_before

    @pytest.mark.parametrize(
        "mask, mutate",
        [
            (0b11, lambda e: e.submit(Job(5, 0, 99, 2))),
            (0b11, lambda e: e.add_machine(7, 0)),
            (0b11, lambda e: e.retire_machine(0)),
            (0b01, lambda e: e.add_member(1)),
            (0b11, lambda e: e.remove_member(1)),
            (0b11, lambda e: e.drive(fifo_select, until=6)),
            (0b11, lambda e: e.fork().drive(fifo_select)),
        ],
        ids=[
            "submit", "add_machine", "retire_machine", "add_member",
            "remove_member", "drive", "fork",
        ],
    )
    def test_each_mutator_after_materialize(self, mask, mutate, rng):
        """A caller that mutates an engine materializes the fleet first
        (once, named); the mutation lands on the real engine and the fleet
        carries on exactly like one that never used the kernel."""
        wl = random_workload(rng, n_orgs=2, n_jobs=10, max_release=8,
                             machine_counts=[2, 1])
        kf = CoalitionFleet(wl, all_masks(2), backend="kernel")
        ef = CoalitionFleet(wl, all_masks(2), backend="engines")
        for fleet in (kf, ef):
            fleet.values_at(3, select=fifo_select)
        kf.materialize("explicit")
        assert kf.kernel is None
        eng = kf.engine(mask)
        assert isinstance(eng, ClusterEngine)
        mutate(eng)
        mutate(ef.engine(mask))
        assert kf.engine(mask) is eng
        assert kf.values_at(40, select=fifo_select) == ef.values_at(
            40, select=fifo_select
        )
        for m in all_masks(2):
            assert kf.engine(m).schedule() == ef.engine(m).schedule(), m
        assert (kf.n_materializations, kf.materialize_reason) == (
            1, "explicit"
        )

    def test_unknown_drive_policy_materializes(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=8, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")

        def lifo(engine):  # no kernel_policy tag
            return max(engine.waiting_orgs())

        vals = fleet.values_at(9, select=lifo)
        assert fleet.kernel is None  # escaped, still correct
        out = {0: 0}
        for m in all_masks(2):
            eng = ClusterEngine(wl, list(iter_members(m)))
            eng.drive(lifo, until=9)
            if eng.t < 9:
                eng.advance_to(9)
            out[m] = sum(eng.psis(9))
        assert vals == out

    def test_add_mask_pristine_extends_remove_materializes(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(3)[:5], backend="kernel")
        fleet.add_mask(0b111)  # pristine: kernel absorbs the new mask
        assert fleet.kernel is not None and 0b111 in fleet
        fleet.values_at(4, select=fifo_select)
        eng = fleet.remove_mask(0b111)  # materializes, returns a real engine
        assert isinstance(eng, ClusterEngine)
        assert fleet.kernel is None and 0b111 not in fleet


    @pytest.mark.parametrize(
        "reason",
        [
            "unsafe_submit", "adopt_engine", "add_mask", "remove_mask",
            "unknown_drive", "pool_change", "join",
        ],
    )
    def test_fallbacks_are_counted_and_named(self, reason, rng):
        """ISSUE 12 observability: a fleet that left the kernel says so,
        once, with the cause; the start-log count survives the move."""
        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=6)
        fleet = CoalitionFleet(wl, all_masks(3)[1:], backend="kernel")
        fleet.values_at(4, select=fifo_select)
        before = fleet.backend_status()
        assert before["backend"] == "kernel"
        assert before["materializations"] == fleet.n_materializations == 0
        assert before["start_log_entries"] == fleet.kernel.rec.log_len > 0
        assert fleet.materialize_reason is None
        trigger = {
            "unsafe_submit": lambda: fleet.submit(Job(9, 0, 99, 1 << 40)),
            "adopt_engine": lambda: fleet.replace_engine(
                0b001, ClusterEngine(wl, [0])
            ),
            "add_mask": lambda: fleet.add_mask(0b111),
            "remove_mask": lambda: fleet.remove_mask(0b011),
            "unknown_drive": lambda: fleet.values_at(
                5, select=lambda eng: fifo_select(eng)
            ),
            # the online service's reasons (tests/test_kernel_membership.py
            # drives them through ClusterService)
            "pool_change": lambda: fleet.materialize("pool_change"),
            "join": lambda: fleet.materialize("join"),
        }
        trigger[reason]()
        assert fleet.kernel is None
        assert (fleet.n_materializations, fleet.materialize_reason) == (
            1, reason
        )
        fleet.remove_mask(0b101)  # already per-engine: not a fallback
        assert (fleet.n_materializations, fleet.materialize_reason) == (
            1, reason
        )
        after = fleet.backend_status()
        assert (after["backend"], after["materializations"]) == ("engines", 1)
        if reason in ("unsafe_submit", "pool_change", "join"):  # same engines
            assert after["start_log_entries"] == sum(
                len(fleet.engine(m).schedule()) for m in fleet.masks
            )


class TestDispatchAndCertification:
    def test_auto_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 8)
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        small = CoalitionFleet(wl, all_masks(3))
        assert small.kernel is None  # 7 masks < threshold of 8
        assert KERNEL_MIN_ENGINES <= 63, "REF k>=6 should dispatch"

    def test_auto_engages_above_threshold(self, rng, monkeypatch):
        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 4)
        wl = random_workload(rng, n_orgs=3, n_jobs=9, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(3))
        assert fleet.kernel is not None

    def test_uncertified_workload_refuses_kernel(self):
        big = 1 << 32
        wl = make_workload(
            [1, 1], [(0, 0, big), (big, 0, big), (0, 1, 2 * big)]
        )
        assert not kernel_certified(wl, None)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        assert fleet.kernel is None  # falls back to exact engines
        t = 3 * big
        got = fleet.values_at(t, select=fifo_select)
        assert got == reference_values(wl, all_masks(2), t, None)

    def test_unsafe_submit_materializes_transparently(self, rng):
        wl = random_workload(rng, n_orgs=2, n_jobs=8, max_release=5)
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.values_at(3, select=fifo_select)
        from repro.core.job import Job

        huge = Job(release=5, org=0, index=99, size=(1 << 33))
        fleet.submit(huge)  # certification would break: engines take over
        assert fleet.kernel is None
        assert any(
            j is huge or j == huge
            for j in fleet.engine(0b01)._stream
        )


class TestOverflowFallback:
    """Push queries past the int64 hand-over and pin exact == vectorized
    at the boundary, on both backends."""

    #: far past any guard: t*t + t alone exceeds 1 << 62
    T_UNSAFE = 1 << 31

    def _workload(self):
        return make_workload(
            [1, 1],
            [(0, 0, 3), (1, 0, 2), (0, 1, 4), (5, 1, 1)],
        )

    def _reference(self, wl, t):
        return reference_values(wl, all_masks(2), t, None)

    @staticmethod
    def _guard_boundary(fleet) -> int:
        """Largest t (by bisection) where the vectorized query still runs --
        the exact trip point depends on the historical ledger maxima."""
        lo, hi = 0, 1 << 32
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if fleet.values_array(mid) is not None:
                lo = mid
            else:
                hi = mid
        return lo

    @pytest.mark.parametrize("backend", ["engines", "kernel"])
    def test_boundary_agreement_and_fallback(self, backend):
        wl = self._workload()
        fleet = CoalitionFleet(wl, all_masks(2), backend=backend)
        if backend == "kernel":
            assert fleet.kernel is not None
        fleet.values_at(20, select=fifo_select)  # run to completion
        if backend == "engines":
            # exact engine values, handed over as int64 below 2**62 only
            cap = 1 << 62
            lo, hi = 20, cap  # max value < cap at lo, >= cap at hi
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if max(fleet.values_at(mid).values()) < cap:
                    lo = mid
                else:
                    hi = mid
            for t in (20, self.T_UNSAFE, lo, hi, cap):
                exact = fleet.values_at(t)
                assert exact == self._reference(wl, t)
                arr = fleet.values_array(t)
                assert (arr is None) == (max(exact.values()) >= cap), t
                if arr is not None:
                    assert dict(zip(fleet.masks, arr.tolist())) == {
                        m: exact[m] for m in fleet.masks
                    }
            return
        t_safe = self._guard_boundary(fleet)
        assert 20 < t_safe < self.T_UNSAFE
        # at the boundary: vectorized and exact agree bit for bit
        arr = fleet.values_array(t_safe)
        assert arr is not None
        exact = fleet.values_at(t_safe)
        assert dict(zip(fleet.masks, arr.tolist())) == {
            m: exact[m] for m in fleet.masks
        }
        assert exact == self._reference(wl, t_safe)
        # one past the boundary: the vectorized query refuses, values_at
        # falls back to exact unbounded-int arithmetic
        assert fleet.values_array(t_safe + 1) is None
        got = fleet.values_at(t_safe + 1)
        assert got == self._reference(wl, t_safe + 1)
        assert fleet.values_array(self.T_UNSAFE) is None
        assert fleet.values_at(self.T_UNSAFE) == self._reference(
            wl, self.T_UNSAFE
        )

    def test_kernel_exact_values_after_guard_trip(self):
        """The kernel's int64 ledgers stay exact (certified), so its exact
        fallback agrees with per-engine big-int arithmetic at any t."""
        wl = self._workload()
        kf = CoalitionFleet(wl, all_masks(2), backend="kernel")
        ef = CoalitionFleet(wl, all_masks(2), backend="engines")
        for t in (7, 20):
            kf.values_at(t, select=fifo_select)
            ef.values_at(t, select=fifo_select)
        for t in (1 << 20, self.T_UNSAFE, (1 << 40) + 7):
            assert kf.values_at(t) == ef.values_at(t), t

    def test_ref_survives_far_future_contribution_query(self, force_kernel):
        """REF's kernel body falls back to the exact path when a horizon far
        beyond int64 range trips the per-query guard mid-run."""
        far = 4_000_000_000  # t^2 overflows int64, t itself does not
        wl = make_workload([1, 1, 1, 1, 1], [(far, u, 1) for u in range(5)])
        fleet = CoalitionFleet(wl, all_masks(5))
        assert fleet.kernel is None  # certification rejects the far release
        result = RefScheduler().run(wl)
        assert len(result.schedule) == 5


def stepped_ref(workload, backend, peek_after=None, horizon=None):
    """REF stepped one decision at a time over a frozen workload; after the
    ``peek_after``-th decision the caller looks 7 ticks ahead
    (``RefRun.values_at``), which advances the fleet past decisions it has
    not scheduled yet -- the next decision time is then the fleet's first
    event after the look-ahead."""
    k = workload.n_orgs
    grand = (1 << k) - 1
    fleet = CoalitionFleet(
        workload, all_masks(k), horizon=horizon, backend=backend
    )
    run = RefRun(workload, tuple(range(k)), grand, horizon, fleet=fleet)
    peeked = None
    n = 0
    while (t := fleet.next_event_time()) is not None:
        run.step(t)
        n += 1
        if n == peek_after:
            peeked = run.values_at(t + 7)
    return fleet, run, peeked


class TestRefBodiesAgree:
    """ISSUE 16: ``RefRun`` has two event bodies -- the fused array body
    and the per-coalition body that takes everything the array body
    declines.  Both declines that a live run can reach are driven here
    against ``backend="engines"``.  ISSUE 22: the array body computes
    Shapley keys only at events where some capable row has a choice;
    ``RefRun.ref_events`` says which way each event went."""

    @staticmethod
    def _assert_same_logs(kf, ef):
        assert kf.kernel is not None, kf.materialize_reason
        for row, mask in enumerate(kf.masks):
            assert kf.kernel.row_entries(row) == ef.engine(mask)._log, mask

    def test_underloaded_run_never_computes_a_key(self):
        """One release at a time and a free machine in every coalition
        that sees it: every start is forced."""
        wl = make_workload([1] * 5, [(3 * i, i % 5, 2) for i in range(15)])
        kf, krun, _ = stepped_ref(wl, "kernel")
        ef, erun, _ = stepped_ref(wl, "engines")
        self._assert_same_logs(kf, ef)
        assert krun.ref_events == {
            "forced": 15, "contested": 0, "unsafe": 0, "guard": 0, "engines": 0,
        }
        # engines: the other body, at every one of the 30 decision times
        assert erun.ref_events == {
            "forced": 0, "contested": 0, "unsafe": 0, "guard": 0, "engines": 30,
        }
        with mock.patch.object(
            RowRecord, "psis", side_effect=AssertionError
        ):
            stepped_ref(wl, "kernel")

    def test_step_past_the_certified_range_is_counted_and_exact(self):
        """No event of a live run lies past the certified ``T``; a caller
        stepping there by hand is declined before the psi query."""
        wl = make_workload([1] * 5, [(0, u, 1) for u in range(5)])
        kf, krun, _ = stepped_ref(wl, "kernel")
        ef, erun, _ = stepped_ref(wl, "engines")
        far = 4_000_000_000  # t^2 overflows int64, t itself does not
        krun.step(far)
        erun.step(far)
        assert krun.ref_events["unsafe"] == 1
        assert kf.values_at(far) == ef.values_at(far)

    def test_overloaded_run_is_contested_at_every_event(self):
        """Equal jobs, all released at 0, two machines and a horizon that
        cuts the run while every organization still queues: the grand
        coalition chooses among several at every event before it."""
        wl = make_workload(
            [1, 1, 0, 0, 0], [(0, u, 2) for u in range(5) for _ in range(4)]
        )
        kf, krun, _ = stepped_ref(wl, "kernel", horizon=8)
        ef, _, _ = stepped_ref(wl, "engines", horizon=8)
        self._assert_same_logs(kf, ef)
        assert len(kf.engine(31).schedule()) == 8
        assert krun.ref_events == {
            "forced": 0, "contested": 4, "unsafe": 0, "guard": 0, "engines": 0,
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_lookahead_mid_run_matches_engines(self, seed):
        """A look-ahead mid-run moves both fleets past decisions they have
        not scheduled; both resume at their first event after it, and
        agree on every value and start."""
        wl = random_workload(
            np.random.default_rng(seed), n_orgs=6, n_jobs=40, max_release=30
        )
        kf, _, k_peek = stepped_ref(wl, "kernel", peek_after=5)
        ef, _, e_peek = stepped_ref(wl, "engines", peek_after=5)
        assert k_peek is not None and k_peek == e_peek
        assert kf.engine(63).schedule() == ef.engine(63).schedule()
        self._assert_same_logs(kf, ef)

    def test_step_behind_the_kernel_clock_raises(self):
        """Decision times come from the simulations, so no decision loop
        steps REF into the past; a caller that does gets the kernel's
        refusal, as a per-engine simulation refuses ``advance_to``
        backwards."""
        wl = make_workload([1] * 6, [(3 * i, i % 6, 2) for i in range(12)])
        kf, krun, _ = stepped_ref(wl, "kernel")
        assert kf.kernel.t > 0
        with pytest.raises(ValueError, match="backwards"):
            krun.step(kf.kernel.t - 1)

    def test_non_member_release_is_no_decision_time(self):
        """The kernel holds every organization's stream, but a release of
        one no row simulates is no row's event: REF over six of seven
        organizations stops at their last event on both backends (the
        seventh's release at 50 would otherwise be the last one)."""
        wl = make_workload(
            [1] * 7, [(0, u, 2) for u in range(6)] + [(50, 6, 1)]
        )
        kf = CoalitionFleet(wl, all_masks(6), backend="kernel")
        ef = CoalitionFleet(wl, all_masks(6), backend="engines")
        assert kf.kernel is not None
        kf.advance_all(0)
        ef.advance_all(0)
        assert kf.next_event_time() == ef.next_event_time() is None
        result = RefScheduler(collect_contributions=True).run(
            wl, members=range(6)
        )
        assert result.meta["contributions_time"] == 2

    @staticmethod
    def _scaled(workload, factor):
        return Workload(
            workload.organizations,
            [
                Job(j.release * factor, j.org, j.index, j.size * factor)
                for j in workload.jobs
            ],
        )

    @pytest.mark.parametrize("k, seed", [(6, 0), (8, 1)])
    def test_guard_band_declines_to_the_per_coalition_body(self, k, seed):
        """Releases and sizes scaled by 10^6 stay ``kernel_certified`` but
        trip the fused body's combined int64 guard (it must decline at
        least once, before any start); scaled by 10^7 the workload is not
        certified at all and the fleet runs on engines with exact ints.
        Both equal the ``backend="engines"`` schedule."""
        # three machines in all: long queues, hence coalition values large
        # enough to reach the guard band well inside the certified range
        base = random_workload(
            np.random.default_rng(seed),
            n_orgs=k,
            n_jobs=50,
            max_release=25,
            machine_counts=[1, 1, 1] + [0] * (k - 3),
        )
        grand = (1 << k) - 1

        certified = self._scaled(base, 10**6)
        assert kernel_certified(certified, None)
        declined = []
        fused = RefRun._on_event_kernel

        forced_at = []

        def spy(self, fleet, t):
            starts = fleet.kernel.rec.log_len
            forced = self.ref_events["forced"]
            served = fused(self, fleet, t)
            if not served:
                assert fleet.kernel.rec.log_len == starts
                declined.append(t)
            elif self.ref_events["forced"] > forced:
                forced_at.append(t)
            return served

        with mock.patch.object(RefRun, "_on_event_kernel", spy):
            kf, krun, _ = stepped_ref(certified, "kernel")
        assert kf.kernel is not None, kf.materialize_reason
        assert declined
        # every decline is the guard's, and only contested events reach
        # it: the guard bound grows with t, so each forced event served
        # after the first decline is one the guard would have refused
        seen = krun.ref_events
        assert (seen["guard"], seen["unsafe"]) == (len(declined), 0)
        assert forced_at and max(forced_at) > min(declined)
        ef, _, _ = stepped_ref(certified, "engines")
        assert kf.engine(grand).schedule() == ef.engine(grand).schedule()

        uncertified = self._scaled(base, 10**7)
        assert not kernel_certified(uncertified, None)
        with mock.patch.object(
            ref_mod, "shapley_exact_scaled", wraps=ref_mod.shapley_exact_scaled
        ) as exact:
            auto = RefScheduler().run(uncertified).schedule
        assert exact.call_count  # the big-int UpdateVals did run
        ef, _, _ = stepped_ref(uncertified, "engines")
        assert auto == ef.engine(grand).schedule()


class TestReplayEquivalenceWithKernel:
    """ISSUE 5 acceptance: online replay == batch stays bit-identical for
    every step-capable fleet policy with the kernel active on the batch
    side (and on the service's genesis fleets where it engages)."""

    @pytest.mark.parametrize("policy", ["ref", "rand", "directcontr"])
    def test_replay_equals_batch(self, policy, force_kernel, rng):
        from repro.service import ReplayDriver

        wl = random_workload(
            rng, n_orgs=3, n_jobs=14, max_release=12,
            machine_counts=[2, 1, 1],
        )
        report = ReplayDriver(wl, policy, seed=0).run()
        assert report.equivalent

    @pytest.mark.parametrize("policy", ["ref", "rand"])
    def test_replay_with_kill_restore(self, policy, force_kernel, rng):
        from repro.service import ReplayDriver

        wl = random_workload(rng, n_orgs=3, n_jobs=12, max_release=10)
        report = ReplayDriver(wl, policy, seed=0, snapshot_every=3).run()
        assert report.n_snapshots > 0
        assert report.equivalent

    def test_midstream_unsafe_submit_materializes(self, force_kernel,
                                                  monkeypatch, rng):
        """An overflow-boundary submit mid-stream trips ``KernelUnsafe``
        inside the service's grouped ingest: the fleet materializes to
        per-engine state and finishes bit-identically to a run that never
        used the kernel at all."""
        from repro.service import ClusterService

        wl = random_workload(
            rng, n_orgs=3, n_jobs=10, max_release=8,
            machine_counts=[2, 1, 1],
        )

        def stream(svc):
            for job in sorted(wl.jobs):
                svc.submit_job(job)
                svc.advance(job.release)
            svc.submit(0, 1 << 33, release=svc.clock)  # breaks certification
            svc.drain()
            return svc

        with_kernel = ClusterService(wl.machine_counts(), "ref", seed=0)
        assert with_kernel._policy.fleet.kernel is not None
        stream(with_kernel)
        assert with_kernel._policy.fleet.kernel is None  # escaped mid-run

        monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", 1 << 30)
        engines_only = stream(
            ClusterService(wl.machine_counts(), "ref", seed=0)
        )
        assert engines_only._policy.fleet.kernel is None
        assert with_kernel.schedule() == engines_only.schedule()
        assert with_kernel.n_events == engines_only.n_events


class TestKernelInternals:
    def test_materializes_equal_backends_after_horizon_cut(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=15, max_release=20)
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, horizon=10, backend="kernel")
        ef = CoalitionFleet(wl, masks, horizon=10, backend="engines")
        for t in (4, 9, 15):
            assert kf.values_at(t, select=fifo_select) == ef.values_at(
                t, select=fifo_select
            ), t

    def test_start_next_via_fleet_kernel(self, rng):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 3)])
        fleet = CoalitionFleet(wl, all_masks(2), backend="kernel")
        fleet.advance_all(0)
        entry = fleet.start_next(0b11, 1)
        assert (entry.start, entry.job.org) == (0, 1)
        with pytest.raises(ValueError):
            fleet.start_next(0b11, 1)  # no second waiting job for org 1
        entry2 = fleet.start_next(0b11, 0)
        assert entry2.machine != entry.machine
        with pytest.raises(ValueError):
            fleet.start_next(0b01, 0, machine=99)

    def test_kernel_certified_bound(self):
        wl = make_workload([1], [(0, 0, 1)])
        assert kernel_certified(wl, None)
        assert not kernel_certified(wl, 1 << 40)

    def test_fleet_kernel_direct_event_api(self):
        wl = make_workload([1, 1], [(0, 0, 2), (4, 1, 1)])
        kern = FleetKernel(wl, [0b01, 0b10, 0b11])
        assert kern.next_event_time() == 0
        kern.drive_fifo(10)
        assert kern.t == 10
        assert kern.next_event_time() is None


    @pytest.mark.parametrize("keys", [[1, 5, 3], [5, 1, 1], [0, 0, 0]])
    def test_fill_rows_multi_start_matches_fill_capacity(self, keys):
        """ISSUE 22: ``fill_rows`` ends with a row's last start, counted
        as ``min(free machines, waiting jobs)``.  Rows with two and three
        free machines, queues from one organization and from several,
        more jobs than machines and fewer -- against ``fill_capacity``
        over real engines."""
        wl = make_workload(
            [2, 1, 0], [(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 2), (0, 2, 1)]
        )
        masks = all_masks(3)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        kf.advance_all(0)
        ef.advance_all(0)
        rows = np.arange(len(masks))
        kf.kernel.fill_rows(rows, np.tile(np.array(keys), (len(rows), 1)))
        for mask in masks:
            fill_capacity(ef, mask, dict(enumerate(keys)))
        kern = kf.kernel
        # {0}: 2 of org 0's 3; {1}: its one job; {2}: no machine;
        # {0,1}: 3 machines, 4 jobs; {1,2}: 1 machine, 2 jobs
        n_started = {m: len(ef.engine(m)._log) for m in masks}
        assert n_started == {
            0b001: 2, 0b010: 1, 0b100: 0, 0b011: 3, 0b101: 2, 0b110: 1,
            0b111: 3,
        }
        for row, mask in enumerate(masks):
            assert kern.row_entries(row) == ef.engine(mask)._log, mask
            got, eng = kern.materialize_row(row), ef.engine(mask)
            assert got.ledger() == eng.ledger(), mask
            assert got.free_machines() == eng.free_machines(), mask
        kern.fill_rows(rows, None)  # nothing left to pair anywhere
        assert kern.rec.log_len == sum(n_started.values())
        assert_rows_match(kf, ef, 0)

    def test_same_cell_completing_twice_at_one_time(self):
        """Two machines of one row finish jobs of the same organization at
        the same ``t``: the completion pass addresses the ledger by one
        flat ``row*k + org`` index, and that index repeats."""
        wl = make_workload(
            [2, 0], [(0, 0, 3), (0, 0, 3), (0, 1, 3), (1, 0, 2), (1, 1, 2)]
        )
        masks = all_masks(2)
        kf = CoalitionFleet(wl, masks, backend="kernel")
        ef = CoalitionFleet(wl, masks, backend="engines")
        for t in (2, 3, 4, 9):
            assert kf.values_at(t, select=fifo_select) == ef.values_at(
                t, select=fifo_select
            ), t
            for row, mask in enumerate(masks):
                view, eng = kf.engine(mask), ef.engine(mask)
                got = kf.kernel.materialize_row(row)
                assert got.ledger() == eng.ledger(), (mask, t)
                assert view.psis(t + 2) == eng.psis(t + 2), (mask, t)
                assert view.running_counts() == eng.running_counts()
                assert got.free_machines() == eng.free_machines()
            if t == 3:  # both of row {0}'s machines just completed org 0
                kern = kf.kernel
                assert kern.rec.done_units[kern._row[0b01], 0] == 6
        assert_rows_match(kf, ef, 3)


def log_bytes(rec: RowRecord) -> dict:
    """Every start-log column's live prefix, byte for byte."""
    return {
        name: col[: rec.log_len].tobytes()
        for name, col in vars(rec).items()
        if name.startswith("log_") and isinstance(col, np.ndarray)
    }


def assert_rows_match(kf: CoalitionFleet, ef: CoalitionFleet, t_past: int):
    """Every kernel row reads back, through each log reader (the view's
    and the materialized row's), exactly what the per-engine fleet fed
    the same ops recorded."""
    kern = kf.kernel
    assert kern is not None
    for row, mask in enumerate(kf.masks):
        ref = ef.engine(mask)
        got = kern.materialize_row(row)
        assert kern.row_entries(row) == ref._log, mask
        assert kf.engine(mask).schedule() == ref.schedule(), mask
        assert got.schedule() == ref.schedule(), mask
        assert got.completed_log == ref.completed_log, mask
        for mid in ref.machine_owner:  # running_on from the start log
            a, b = got.running_on(mid), ref.running_on(mid)
            assert (a and (a.job, a.start)) == (b and (b.job, b.start)), mask
    assert kf.values_at(t_past) == ef.values_at(t_past)  # values_retro
    assert kf.kernel is kern  # nothing above materialized the fleet


class TestStartLogIdentity:
    """ISSUE 12: the start log names a job by (org, rank in the org's
    stream), which no ingest splice can move -- so ingest never rewrites
    (or reads) the log, and every reader resolves the same job the
    per-engine backend started, however the stream grew in between."""

    MACHINES = [1, 2, 1]
    EARLY = [(0, 0, 2), (0, 1, 3), (1, 1, 1), (1, 2, 2), (2, 2, 1), (3, 0, 1)]
    #: fed online, in this order (per org in FIFO order)
    LATE = [
        (4, 0, 2),   # (a)+(c): lowest org, which already has logged starts
        (5, 2, 1), (5, 0, 3), (5, 1, 2), (5, 1, 1),   # (b): one release, 3 orgs
        (5, 0, 1), (7, 1, 2), (7, 0, 2),   # release == clock, and ahead
        (8, 0, 1),   # (a) again, after keyed fills logged more starts
        (9, 2, 3), (9, 0, 1), (9, 1, 1),
    ]

    def _fleets(self):
        """Both backends over the EARLY stream, and the LATE jobs in
        feeding order with the FIFO indices a service would assign."""
        seen = [0] * len(self.MACHINES)
        jobs = []
        for release, org, size in self.EARLY + self.LATE:
            jobs.append(Job(release, org, seen[org], size))
            seen[org] += 1
        early = make_workload(self.MACHINES, self.EARLY)
        masks = all_masks(3)
        kf = CoalitionFleet(early, masks, backend="kernel")
        ef = CoalitionFleet(early, masks, backend="engines")
        return kf, ef, jobs[len(self.EARLY):]

    @staticmethod
    def _ingest(kf, ef, jobs):
        """Feed ``jobs`` to both fleets; the kernel's log must come out
        byte-identical (ingest never writes it)."""
        before = log_bytes(kf.kernel.rec)
        assert set(before) == {"log_row", "log_start", "log_mach", "log_job"}
        for fleet in (kf, ef):
            for job in jobs:
                fleet.submit(job)
        assert log_bytes(kf.kernel.rec) == before

    @staticmethod
    def _fifo(kf, ef, t):
        assert kf.values_at(t, select=fifo_select) == ef.values_at(
            t, select=fifo_select
        )

    @staticmethod
    def _keyed_fill(kf, ef, t, keys):
        """Advance without starts, then fill every coalition by ``keys``
        (ties: lowest org): the kernel side through ``fill_rows`` on the
        even rows and ``start_row`` on the odd ones."""
        kf.advance_all(t)
        ef.advance_all(t)
        by_org = dict(enumerate(keys))
        rows = np.arange(0, len(kf.masks), 2)
        kf.kernel.fill_rows(rows, np.tile(np.array(keys), (len(rows), 1)))
        for row, mask in enumerate(kf.masks):
            if row % 2:
                fill_capacity(kf, mask, by_org)
            fill_capacity(ef, mask, by_org)

    def test_interleaved_ingest_and_fills_match_engines(self):
        kf, ef, late = self._fleets()
        self._fifo(kf, ef, 2)
        assert kf.kernel.rec.log_len > 0
        assert_rows_match(kf, ef, 1)
        self._ingest(kf, ef, late[0:1])     # lower org's window: orgs 1, 2 shift
        assert_rows_match(kf, ef, 2)
        self._ingest(kf, ef, late[1:5])     # tie at release 5 across all orgs
        assert_rows_match(kf, ef, 1)
        self._fifo(kf, ef, 5)
        assert_rows_match(kf, ef, 3)
        self._ingest(kf, ef, late[5:8])     # release == kernel clock
        assert_rows_match(kf, ef, 4)
        self._keyed_fill(kf, ef, 6, [3, 1, 3])
        assert_rows_match(kf, ef, 5)
        self._ingest(kf, ef, late[8:9])
        assert_rows_match(kf, ef, 6)
        self._keyed_fill(kf, ef, 8, [0, 2, 2])
        self._ingest(kf, ef, late[9:12])
        assert_rows_match(kf, ef, 7)
        for t in (12, 40):
            self._fifo(kf, ef, t)
            assert_rows_match(kf, ef, t - 3)
        n_jobs = len(self.EARLY) + len(self.LATE)
        assert len(kf.engine(0b111).schedule()) == n_jobs

    def _fleet_record(self) -> RowRecord:
        kf, ef, _ = self._fleets()
        self._fifo(kf, ef, 3)
        return kf.kernel.rec

    def _batch_record(self) -> RowRecord:
        wl = make_workload(self.MACHINES, self.EARLY)
        kern = FleetKernel.batch([(wl, all_masks(3), None)] * 2)
        rows = np.arange(kern.n)
        while kern.sweep() is not None:
            kern.fill_rows(rows, np.zeros((kern.n, kern.k)))
        return kern.rec

    @pytest.mark.parametrize(
        "record",
        ["_fleet_record", "_batch_record"],
        ids=["FleetKernel", "FleetKernel.batch"],
    )
    def test_log_entry_is_24_bytes(self, record):
        """ISSUE 12: the log (one entry per start per coalition row) is
        most of a long-running REF service's kernel memory; the job
        identity must not widen it.  A fleet's kernel and a batch of two
        instances both keep the record's log:
        int32 row and machine, int64 start and job (DESIGN §8.2)."""
        rec = getattr(self, record)()
        assert rec.log_len > 0
        cols = log_bytes(rec)
        assert sum(map(len, cols.values())) == 24 * rec.log_len


# ----------------------------------------------------------------------
# generated: online kernel ingest == batch REF == per-engine backend
# ----------------------------------------------------------------------
@st.composite
def online_instances(draw):
    """Machine counts, a canonical job stream with ties and zero gaps,
    after which jobs to run the decisions ahead of the next release, and
    after which decision of the final drain to look 7 ticks ahead (0:
    never)."""
    k = draw(st.integers(2, 4))
    machines = draw(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)
    )
    n = draw(st.integers(1, 14))
    gaps = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=n, max_size=n))
    orgs = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    runs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    peek = draw(st.sampled_from([0, 0, 1, 2, 3, 5]))
    triples, t = [], 0
    for gap, u, p in zip(gaps, orgs, sizes):
        t += gap
        triples.append((t, u, p))
    return machines, triples, runs, peek


def serve_ref(workload, backend, runs, check, peek=0):
    """REF stepped online over a fleet that starts jobless: the stream is
    fed per job in canonical order, and after every job whose ``runs``
    flag is set the decisions strictly before the next unseen release
    are processed (never the next release itself: its round must see the
    whole tie group, like the service's).  ``check(fleet, t)`` runs after
    every such advance.  After the ``peek``-th decision of the final drain
    the caller looks 7 ticks ahead (only there: a look-ahead moves the
    fleet clock, and no job may be submitted into its past), so the next
    decision is the fleet's first event after it; the values it read are
    returned."""
    k = workload.n_orgs
    empty = Workload(workload.organizations, ())
    fleet = CoalitionFleet(empty, all_masks(k), backend=backend)
    run = RefRun(empty, tuple(range(k)), (1 << k) - 1, None, fleet=fleet)

    peeked = None

    def advance(limit, peek=0):
        nonlocal peeked
        n = 0
        while (t := fleet.next_event_time()) is not None and (
            limit is None or t < limit
        ):
            run.step(t)
            check(fleet, t)
            n += 1
            if n == peek:
                peeked = fleet.values_at(t + 7)

    jobs = sorted(workload.jobs)
    for i, job in enumerate(jobs):
        fleet.submit(job)
        if runs[i] and i + 1 < len(jobs):
            advance(jobs[i + 1].release)
    advance(None, peek)
    return fleet, run, peeked


#: FleetKernel's caches: the hot paths patch them, ``_derive`` rebuilds
#: them (with ``rec.free_count``) from the record, streams and horizon
DERIVED = (
    "_head_rel", "_next_rel", "_next_fin", "_covered", "_org_clip",
    "_total_units", "_max_release",
)


def rederived(kern: FleetKernel) -> FleetKernel:
    """A copy of ``kern`` with every cache wiped and rebuilt by
    ``_derive``; each must equal the live kernel's patched value."""
    twin = copy.deepcopy(kern)
    for name in DERIVED:
        setattr(twin, name, None)
    twin.rec.free_count = None
    twin._derive()
    for name in DERIVED:
        np.testing.assert_array_equal(
            getattr(twin, name), getattr(kern, name), err_msg=name
        )
    np.testing.assert_array_equal(twin.rec.free_count, kern.rec.free_count)
    return twin


@settings(max_examples=60, deadline=None)
@given(instance=online_instances(), vectorize=st.booleans())
def test_online_kernel_ingest_equals_batch_and_engines(instance, vectorize):
    """...and at every cut the kernel's caches are what ``_derive``
    computes; from the first cut on, the run continues on a re-derived
    copy (everything asserted below must still hold)."""
    machines, triples, runs, peek = instance
    wl = make_workload(machines, triples)
    k = len(machines)
    grand = (1 << k) - 1
    seen: dict = {"kernel": [], "engines": []}

    def checker(name):
        def check(fleet, t):
            if name == "kernel":
                twin = rederived(fleet.kernel)
                if not seen[name]:
                    fleet._kernel_obj = twin
            # a past and the current time, mid-stream (a future query
            # advances the fleet past decisions it has not scheduled yet:
            # that is serve_ref's ``peek``)
            seen[name].append((t, fleet.values_at(t // 2), fleet.values_at(t)))
        return check

    # both REF bodies, and both arithmetics of the per-coalition one: the
    # fused array body on the kernel fleet (fill_rows) with the solver's
    # matmul on the engines fleet, or exact small-k dicts on both (over
    # engine views on the kernel fleet)
    threshold = 0 if vectorize else 99
    with mock.patch.object(ref_mod, "VECTORIZE_MIN_K", threshold):
        batch = RefScheduler().run(wl).schedule
        kf, krun, k_peek = serve_ref(
            wl, "kernel", runs, checker("kernel"), peek
        )
        ef, erun, e_peek = serve_ref(
            wl, "engines", runs, checker("engines"), peek
        )
    assert kf.kernel is not None, kf.materialize_reason
    assert k_peek == e_peek
    assert kf.engine(grand).schedule() == ef.engine(grand).schedule()
    if not peek:  # a look-ahead delays the starts it skipped past
        assert kf.engine(grand).schedule() == batch
    assert seen["kernel"] == seen["engines"]
    for row, mask in enumerate(kf.masks):
        assert kf.kernel.row_entries(row) == ef.engine(mask)._log, mask
    last = krun.last_event
    assert last == erun.last_event
    for t in (last // 2, last, last + 7):
        assert kf.values_at(t) == ef.values_at(t), t


@settings(max_examples=40, deadline=None)
@given(instance=online_instances(), junk_seed=st.integers(0, 2**32 - 1))
def test_keys_of_single_waiter_rows_never_matter(instance, junk_seed):
    """ISSUE 22's forced rule: a row with one organization waiting starts
    that organization's jobs whatever its key row says, in this round and
    in every later round of the event -- so the fused body may hand
    ``fill_rows`` no keys at all when no capable row has two waiting.
    Replacing those rows' keys (and every ``None``) with noise leaves the
    start log byte-identical."""
    machines, triples, runs, _ = instance
    wl = make_workload(machines, triples)
    fill_rows = FleetKernel.fill_rows
    junk = np.random.default_rng(junk_seed)

    def scrambled(self, rows, keys):
        n_wait = np.count_nonzero(
            self.rec.started[rows] < self.released, axis=1
        )
        noise = junk.integers(-(1 << 62), 1 << 62, size=(len(rows), self.k))
        if keys is None:
            assert (n_wait == 1).all()
            keys = noise
        else:
            keys = np.where((n_wait == 1)[:, None], noise, keys)
        return fill_rows(self, rows, keys)

    def serve():
        fleet, run, _ = serve_ref(wl, "kernel", runs, lambda f, t: None)
        assert fleet.kernel is not None, fleet.materialize_reason
        return log_bytes(fleet.kernel.rec), run.ref_events

    with mock.patch.object(ref_mod, "VECTORIZE_MIN_K", 0):
        plain, events = serve()
        with mock.patch.object(FleetKernel, "fill_rows", scrambled):
            noisy, noisy_events = serve()
    assert noisy == plain
    assert noisy_events == events
    assert events["forced"] + events["contested"] > 0
