"""Tests for metrics and the comparison runner."""

import pytest

from repro.algorithms import (
    GreedyFifoScheduler,
    RefScheduler,
    RoundRobinScheduler,
)
from repro.sim.metrics import (
    avg_delay,
    manhattan,
    signed_gap,
    unfairness,
    utilization_ratio,
)
from repro.sim.runner import compare_algorithms, run_schedule

from .conftest import make_workload, random_workload


class TestMetrics:
    def test_manhattan(self):
        assert manhattan([1, 2, 3], [2, 0, 3]) == 3
        with pytest.raises(ValueError):
            manhattan([1], [1, 2])

    def test_signed_gap(self):
        assert signed_gap([5, 1], [2, 2]) == 2
        with pytest.raises(ValueError):
            signed_gap([1], [])

    def test_unfairness_and_avg_delay(self):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2), (0, 0, 2), (0, 1, 2)])
        t = 8
        ref = RefScheduler(horizon=t).run(wl)
        same = RefScheduler(horizon=t).run(wl)
        assert unfairness(same, ref, t) == 0.0
        assert avg_delay(same, ref, t) == 0.0
        rr = RoundRobinScheduler(horizon=t).run(wl)
        assert avg_delay(rr, ref, t) >= 0.0

    def test_avg_delay_zero_ptot(self):
        wl = make_workload([1], [(100, 0, 1)])
        ref = RefScheduler(horizon=5).run(wl)
        assert avg_delay(ref, ref, 5) == 0.0

    def test_utilization_ratio(self):
        wl = make_workload([2, 2], [(0, 0, 3)] * 4 + [(0, 1, 6)] * 2)
        t = 6
        ref = GreedyFifoScheduler(horizon=t).run(wl)
        assert utilization_ratio(ref, ref, t) == 1.0


class TestRunSchedule:
    def test_resolves_names_and_passes_instances_through(self):
        wl = make_workload([1, 1], [(0, 0, 2), (0, 1, 2), (1, 0, 1)])
        by_name = run_schedule("fifo", wl, horizon=6)
        built = run_schedule(GreedyFifoScheduler(6), wl)
        assert by_name.schedule == built.schedule
        assert by_name.algorithm == built.algorithm
        only_0 = run_schedule("fifo", wl, [0], horizon=6)
        assert only_0.members == (0,)
        assert {e.job.org for e in only_0.schedule} == {0}


class TestCompareAlgorithms:
    def test_structure_and_ranking(self, rng):
        wl = random_workload(rng, n_orgs=3, n_jobs=25, machine_counts=[1, 1, 1])
        t = 30
        comp = compare_algorithms(
            [RoundRobinScheduler(t), GreedyFifoScheduler(t)],
            RefScheduler(t),
            wl,
            t,
        )
        assert {o.algorithm for o in comp.outcomes} == {
            "RoundRobin",
            "GreedyFIFO",
        }
        assert comp.by_name("RoundRobin").avg_delay >= 0
        with pytest.raises(KeyError):
            comp.by_name("nope")
        ranked = comp.ranking()
        delays = [comp.by_name(n).avg_delay for n in ranked]
        assert delays == sorted(delays)
        assert all(o.wall_time_s >= 0 for o in comp.outcomes)
