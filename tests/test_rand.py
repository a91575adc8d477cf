"""Tests for RAND, the randomized fair scheduler (FPRAS for unit jobs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import fill_capacity, members_mask
from repro.algorithms.rand import RandRun, RandScheduler
from repro.algorithms.ref import RefScheduler
from repro.core.fleet import CoalitionFleet
from repro.shapley.sampling import hoeffding_samples
from repro.sim.metrics import unfairness

from .conftest import make_workload, random_workload


class TestConstruction:
    def test_name_includes_n(self):
        assert RandScheduler(15).name == "Rand(N=15)"

    def test_rejects_zero_orderings(self):
        with pytest.raises(ValueError):
            RandScheduler(0)

    def test_from_bounds_uses_hoeffding(self):
        s = RandScheduler.from_bounds(k=4, epsilon=0.5, lam=0.5)
        assert s.n_orderings == hoeffding_samples(4, 0.5, 0.5)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        wl = random_workload(rng, n_orgs=3, n_jobs=20)
        a = RandScheduler(10, seed=42).run(wl)
        b = RandScheduler(10, seed=42).run(wl)
        assert a.schedule == b.schedule

    def test_meta_reports_coalitions(self):
        wl = make_workload([1, 1], [(0, 0, 1), (0, 1, 1)])
        r = RandScheduler(5, seed=0).run(wl)
        assert r.meta["n_orderings"] == 5
        assert r.meta["n_coalitions"] >= 2


class TestFairness:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2_000))
    def test_schedules_feasible_and_greedy(self, seed):
        rng = np.random.default_rng(seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=18)
        r = RandScheduler(7, seed=seed).run(wl)
        r.schedule.validate(wl)

    def test_unit_jobs_high_n_tracks_ref(self):
        """With unit jobs and many samples, RAND's schedule utilities are
        close to REF's (Theorem 5.6).  Averaged over several instances the
        normalized gap must be small."""
        gaps = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            wl = random_workload(
                rng, n_orgs=3, n_jobs=40, max_release=25, sizes=(1,),
                machine_counts=[1, 1, 1],
            )
            t_end = 40
            ref = RefScheduler(horizon=t_end).run(wl)
            r = RandScheduler(60, seed=seed, horizon=t_end).run(wl)
            v = max(1, ref.value(t_end))
            gaps.append(unfairness(r, ref, t_end) / v)
        assert float(np.mean(gaps)) < 0.05

    def test_more_samples_not_worse_on_average(self):
        """epsilon decreases with N; check the trend over seeds."""
        def mean_gap(n_orderings: int) -> float:
            out = []
            for seed in range(6):
                rng = np.random.default_rng(100 + seed)
                wl = random_workload(
                    rng, n_orgs=3, n_jobs=30, max_release=20, sizes=(1,),
                    machine_counts=[2, 1, 1],
                )
                t_end = 35
                ref = RefScheduler(horizon=t_end).run(wl)
                r = RandScheduler(n_orderings, seed=seed, horizon=t_end).run(wl)
                v = max(1, ref.value(t_end))
                out.append(unfairness(r, ref, t_end) / v)
            return float(np.mean(out))

        assert mean_gap(40) <= mean_gap(2) + 0.02

    def test_general_sizes_run(self):
        """For non-unit jobs RAND is the paper's heuristic; it must at
        least produce feasible greedy schedules and beat RoundRobin's
        fairness on a contended instance."""
        from repro.algorithms import RoundRobinScheduler

        rng = np.random.default_rng(3)
        wl = random_workload(
            rng, n_orgs=3, n_jobs=40, max_release=10, sizes=(2, 3, 7),
            machine_counts=[2, 1, 1],
        )
        t_end = 60
        ref = RefScheduler(horizon=t_end).run(wl)
        rand_gap = unfairness(
            RandScheduler(15, seed=1, horizon=t_end).run(wl), ref, t_end
        )
        rr_gap = unfairness(
            RoundRobinScheduler(horizon=t_end).run(wl), ref, t_end
        )
        assert rand_gap <= rr_gap


class ValuedAtEveryEvent(RandRun):
    """RAND without the forced shortcut: the oracle is valued at every
    decision event where the carrier can start a job, one waiting
    organization or many."""

    def _on_event(self, fleet, t):
        fleet.advance_all(t)
        grand = self.grand
        if grand.free_count and grand.has_waiting():
            fill_capacity(fleet, self.grand_mask, self.keys(t))


@st.composite
def rand_streams(draw):
    """k = 1..6 organizations, release ties and zero gaps, at most one
    machine per organization (long queues), an optional horizon."""
    k = draw(st.integers(1, 6))
    machines = draw(
        st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(any)
    )
    n = draw(st.integers(0, 24))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n, max_size=n))
    orgs = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    wl = make_workload(
        machines, list(zip(np.cumsum(gaps).tolist(), orgs, sizes))
    )
    horizon = draw(st.one_of(st.none(), st.integers(1, 40)))
    return wl, horizon


def _valued_run(wl, monkeypatch, run_cls=RandRun, horizon=None, seed=0):
    """Drive one RAND run; returns it and how often its oracle was valued."""
    calls = []
    values_array = CoalitionFleet.values_array

    def counted(fleet, t, **kw):
        calls.append(t)
        return values_array(fleet, t, **kw)

    monkeypatch.setattr(CoalitionFleet, "values_array", counted)
    members, grand = members_mask(wl, None)
    run = run_cls(
        wl, members, grand, 15, np.random.default_rng(seed), horizon
    )
    run.drive()
    monkeypatch.undo()
    return run, len(calls)


class TestForcedEvents:
    """A capable decision event where one organization waits is *forced*:
    RAND starts its jobs without valuing the oracle."""

    def test_rand_events_count_the_valuations(self, monkeypatch):
        wl = random_workload(
            np.random.default_rng(5), n_orgs=5, n_jobs=80, max_release=60,
            machine_counts=[2, 1, 1, 1, 1],
        )
        run, valued = _valued_run(wl, monkeypatch)
        seen = run.rand_events
        assert seen["forced"] > 0 and seen["contested"] > 0
        assert seen["contested"] == valued
        eager, eager_valued = _valued_run(wl, monkeypatch, ValuedAtEveryEvent)
        assert seen["forced"] + seen["contested"] == eager_valued
        assert run.grand.schedule() == eager.grand.schedule()

    @settings(max_examples=60, deadline=None)
    @given(case=rand_streams(), seed=st.integers(0, 3))
    def test_forced_shortcut_keeps_the_schedule(self, case, seed):
        wl, horizon = case
        members, grand = members_mask(wl, None)
        runs = [
            cls(wl, members, grand, 15, np.random.default_rng(seed), horizon)
            for cls in (RandRun, ValuedAtEveryEvent)
        ]
        for run in runs:
            run.drive()
        assert runs[0].grand.schedule() == runs[1].grand.schedule()
