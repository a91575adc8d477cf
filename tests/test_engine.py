"""Unit and property tests for the event-driven cluster engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import fifo_select
from repro.core.engine import ClusterEngine
from .tick_reference import TickSimulator
from repro.utility.strategyproof import psi_sp

from .conftest import make_workload, random_workload


class TestEngineMechanics:
    def test_release_then_start(self):
        wl = make_workload([1], [(2, 0, 3)])
        eng = ClusterEngine(wl)
        assert eng.next_event_time() == 2
        eng.advance_to(2)
        assert eng.waiting_count(0) == 1
        eng.start_next(0)
        assert eng.waiting_count(0) == 0
        assert eng.next_event_time() == 5  # completion
        eng.advance_to(5)
        assert eng.done()

    def test_cannot_go_backwards(self):
        eng = ClusterEngine(make_workload([1], [(0, 0, 1)]))
        eng.advance_to(5)
        with pytest.raises(ValueError):
            eng.advance_to(4)

    def test_start_without_waiting_rejected(self):
        eng = ClusterEngine(make_workload([1], [(3, 0, 1)]))
        with pytest.raises(ValueError, match="no waiting job"):
            eng.start_next(0)

    def test_start_without_free_machine_rejected(self):
        wl = make_workload([1], [(0, 0, 5), (0, 0, 5)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        eng.start_next(0)
        with pytest.raises(ValueError, match="free machine"):
            eng.start_next(0)

    def test_specific_machine_choice(self):
        wl = make_workload([2], [(0, 0, 3), (0, 0, 3)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        entry = eng.start_next(0, machine=1)
        assert entry.machine == 1
        with pytest.raises(ValueError, match="not free"):
            eng.start_next(0, machine=1)

    def test_machine_owner_layout(self):
        wl = make_workload([2, 1], [])
        eng = ClusterEngine(wl)
        assert eng.machine_owner == {0: 0, 1: 0, 2: 1}
        sub = ClusterEngine(wl, members=[1])
        assert sub.machine_owner == {2: 1}

    def test_zero_machine_coalition_never_starts(self):
        wl = make_workload([0], [(0, 0, 2)])
        eng = ClusterEngine(wl)
        eng.drive(lambda e: 0)
        assert eng.schedule().entries == ()
        assert eng.value(10) == 0

    def test_horizon_stops_events(self):
        wl = make_workload([1], [(0, 0, 1), (100, 0, 1)])
        eng = ClusterEngine(wl, horizon=50)
        eng.drive(fifo_select)
        assert len(eng.schedule()) == 1

    def test_fifo_order_enforced_by_queue(self):
        wl = make_workload([1], [(0, 0, 5), (0, 0, 1)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        entry = eng.start_next(0)
        assert entry.job.index == 0  # the first submitted job runs first


class TestUtilityAggregates:
    def test_psi_matches_closed_form(self):
        wl = make_workload([2, 1], [(0, 0, 3), (0, 0, 2), (1, 1, 4)])
        eng = ClusterEngine(wl)
        eng.drive(fifo_select)
        sched = eng.schedule()
        for t in range(0, 10):
            expected = [psi_sp(sched.org_pairs(u), t) for u in range(2)]
            assert eng.psis(t) == expected
            assert eng.value(t) == sum(expected)

    def test_psi_of_running_job(self):
        wl = make_workload([1], [(0, 0, 10)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        eng.start_next(0)
        # 3 executed units at t=3 worth 3+2+1
        assert eng.psi(0, 3) == 6
        assert eng.psi(0, 0) == 0

    def test_psis_by_machine_owner(self):
        # org 1's job runs on org 0's machine
        wl = make_workload([1, 0], [(0, 1, 2)])
        eng = ClusterEngine(wl)
        eng.drive(fifo_select)
        t = 4
        assert eng.psis(t) == [0, psi_sp([(0, 2)], t)]
        assert eng.psis_by_machine_owner(t) == [psi_sp([(0, 2)], t), 0]

    def test_consumed_cpu(self):
        wl = make_workload([1], [(0, 0, 4)])
        eng = ClusterEngine(wl)
        eng.advance_to(0)
        eng.start_next(0)
        assert eng.consumed_cpu(0, 2) == 2
        eng.advance_to(4)
        assert eng.consumed_cpu(0, 4) == 4
        assert eng.consumed_cpu(0, 100) == 4  # completed work is capped

    def test_busy_units_and_utilization(self):
        wl = make_workload([2], [(0, 0, 3), (0, 0, 3)])
        eng = ClusterEngine(wl)
        eng.drive(fifo_select)
        assert eng.busy_units(3) == 6
        assert eng.utilization(3) == 1.0
        assert eng.busy_units(2) == 4  # retrospective query from the log


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_event_driven_equals_tick_reference(seed):
    """The engine's event-driven schedule is identical to a literal
    tick-by-tick simulation under the same greedy selection policy."""
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=15)

    eng = ClusterEngine(wl)
    eng.drive(fifo_select)
    event_schedule = eng.schedule()

    def tick_fifo(sim):
        return min(
            sim.waiting_orgs(), key=lambda u: (sim.head_release(u), u)
        )

    horizon = sum(j.size for j in wl.jobs) + 20
    tick_schedule = TickSimulator(wl).run(tick_fifo, until=horizon)
    assert event_schedule == tick_schedule


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_engine_schedules_are_feasible_and_greedy(seed):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=25)
    eng = ClusterEngine(wl)
    eng.drive(fifo_select)
    eng.schedule().validate(wl)  # includes the greedy replay check


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), horizon=st.integers(1, 40))
def test_horizon_prefix_property(seed, horizon):
    """Stopping at a horizon yields exactly the prefix of the full run
    restricted to starts before the horizon (online consistency)."""
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=2, n_jobs=15)
    full = ClusterEngine(wl)
    full.drive(fifo_select)
    cut = ClusterEngine(wl, horizon=horizon)
    cut.drive(fifo_select)
    full_prefix = [e for e in full.schedule() if e.start < horizon]
    assert list(cut.schedule()) == full_prefix
