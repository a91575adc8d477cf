"""Tests for ROUNDROBIN, GreedyFIFO, the fair share family and DIRECTCONTR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    CurrFairShareScheduler,
    DirectContributionScheduler,
    FairShareScheduler,
    GreedyFifoScheduler,
    RoundRobinScheduler,
    UtFairShareScheduler,
)

from .conftest import make_workload, random_workload

ALL_POLICY_SCHEDULERS = [
    RoundRobinScheduler,
    GreedyFifoScheduler,
    FairShareScheduler,
    UtFairShareScheduler,
    CurrFairShareScheduler,
    DirectContributionScheduler,
]


class TestRoundRobin:
    def test_cycles_through_orgs(self):
        # one machine; all jobs released at 0; RR alternates 0,1,2,0,...
        wl = make_workload(
            [1, 0, 0],
            [(0, 0, 1), (0, 0, 1), (0, 1, 1), (0, 1, 1), (0, 2, 1)],
        )
        r = RoundRobinScheduler().run(wl)
        order = [e.job.org for e in sorted(r.schedule, key=lambda e: e.start)]
        assert order == [0, 1, 2, 0, 1]

    def test_skips_empty_queues(self):
        wl = make_workload([1, 0], [(0, 0, 1), (0, 0, 1), (5, 1, 1)])
        r = RoundRobinScheduler().run(wl)
        starts = {(e.job.org, e.job.index): e.start for e in r.schedule}
        assert starts[(0, 1)] == 1  # org 1 had nothing to run yet


class TestGreedyFifo:
    def test_earliest_release_first(self):
        wl = make_workload([1, 1, 1], [(3, 0, 5), (1, 2, 5), (2, 1, 5)])
        r = GreedyFifoScheduler().run(wl)
        starts = {e.job.org: e.start for e in r.schedule}
        assert starts[2] == 1 and starts[1] == 2 and starts[0] == 3


class TestFairShareFamily:
    def test_fairshare_balances_consumed_time(self):
        """Org 0 (share 1/2) hogged the machine early; when both queues
        are nonempty the lagging org must be served first."""
        wl = make_workload(
            [1, 1],
            [(0, 0, 10), (10, 0, 2), (10, 1, 2), (10, 1, 2)],
        )
        # at t=10 both machines free and org0 consumed 10 vs org1's 0, so
        # org1's two jobs claim both machines; org0 waits for the first
        # completion at t=12
        r = FairShareScheduler().run(wl)
        starts = {(e.job.org, e.job.index): e.start for e in r.schedule}
        assert starts[(1, 0)] == 10
        assert starts[(1, 1)] == 10
        assert starts[(0, 1)] == 12

    def test_fairshare_weights_by_share(self):
        """Shares follow contributed machines: in steady state under
        backlog, the 3-machine org receives ~3x the CPU time of the
        1-machine org."""
        wl = make_workload(
            [3, 1],
            [(0, 0, 2)] * 30 + [(0, 1, 2)] * 30,
        )
        r = FairShareScheduler().run(wl)
        t = 20  # both orgs still have backlog at 20 (120 units on 4 cpus)
        units = [0, 0]
        for e in r.schedule:
            units[e.job.org] += min(e.job.size, max(0, t - e.start))
        assert units[0] + units[1] == 4 * t  # fully utilized
        assert 2.0 <= units[0] / units[1] <= 4.0

    def test_utfairshare_uses_utility(self):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2), (2, 0, 2), (2, 1, 2)])
        r = UtFairShareScheduler().run(wl)
        r.schedule.validate(wl)

    def test_currfairshare_balances_running_counts(self):
        wl = make_workload(
            [2, 2],
            [(0, 0, 4)] * 4 + [(0, 1, 4)] * 2,
        )
        r = CurrFairShareScheduler().run(wl)
        wave0 = sorted(e.job.org for e in r.schedule if e.start == 0)
        assert wave0 == [0, 0, 1, 1]  # proportional to equal shares

    def test_zero_share_org_still_served_eventually(self):
        wl = make_workload([1, 0], [(0, 0, 2), (0, 1, 2)])
        for cls in (FairShareScheduler, UtFairShareScheduler, CurrFairShareScheduler):
            r = cls().run(wl)
            assert len(r.schedule) == 2, cls.__name__

    def test_share_base_declares_its_measure(self):
        from repro.algorithms.fairshare import _ShareBased

        with pytest.raises(TypeError, match="_measure"):
            _ShareBased()


class TestDirectContr:
    def test_modes(self):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2), (1, 0, 1)])
        for mode in ("exact", "faithful"):
            r = DirectContributionScheduler(seed=0, mode=mode).run(wl)
            r.schedule.validate(wl)
            assert r.meta["mode"] == mode
        with pytest.raises(ValueError):
            DirectContributionScheduler(mode="bogus")

    def test_select_is_a_misuse(self):
        """DIRECTCONTR picks per machine (``schedule_event``); the
        per-organization ``select`` hook refuses."""
        from repro.core.engine import ClusterEngine

        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2)])
        with pytest.raises(RuntimeError, match="per machine"):
            DirectContributionScheduler(seed=0).select(ClusterEngine(wl))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        wl = random_workload(rng, n_orgs=3, n_jobs=25)
        a = DirectContributionScheduler(seed=7).run(wl)
        b = DirectContributionScheduler(seed=7).run(wl)
        assert a.schedule == b.schedule

    def test_machine_donor_prioritized(self):
        """The contribution heuristic must prioritize the organization
        whose machine has been serving others (same scenario as REF's
        test_prioritizes_machine_contributor)."""
        wl = make_workload(
            [1, 0],
            [(4, 0, 2), (0, 1, 2), (0, 1, 2), (4, 1, 2)],
        )
        r = DirectContributionScheduler(seed=0).run(wl)
        starts = {(e.job.org, e.job.index): e.start for e in r.schedule}
        assert starts[(0, 0)] == 4
        assert starts[(1, 2)] == 6


@pytest.mark.parametrize("scheduler_cls", ALL_POLICY_SCHEDULERS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2_000))
def test_all_policies_produce_feasible_greedy_schedules(scheduler_cls, seed):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=22)
    result = scheduler_cls().run(wl)
    result.schedule.validate(wl)


@pytest.mark.parametrize("scheduler_cls", ALL_POLICY_SCHEDULERS)
def test_all_policies_respect_coalition_membership(scheduler_cls):
    wl = make_workload([1, 1, 1], [(0, 0, 2), (0, 1, 2), (0, 2, 2)])
    result = scheduler_cls().run(wl, members=[0, 2])
    assert {e.job.org for e in result.schedule} == {0, 2}
    result.schedule.validate(wl, members=[0, 2])
