"""Tests for the Theorem 6.2 utilization machinery (Section 6)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import fifo_select
from repro.analysis.utilization import (
    competitive_ratio,
    figure7_ratios,
    figure7_workload,
    greedy_busy_units,
    preemptive_max_units,
    random_adversarial_workload,
    work_upper_bound,
)

from .conftest import make_workload, random_workload


class TestBounds:
    def test_preemptive_bound_simple(self):
        # 2 machines, 3 jobs of size 4 released at 0, horizon 4:
        # at most 2 can run at a time -> 8 units
        wl = make_workload([2], [(0, 0, 4)] * 3)
        assert preemptive_max_units(wl, 4) == 8

    def test_preemptive_bound_respects_releases(self):
        wl = make_workload([1], [(3, 0, 10)])
        assert preemptive_max_units(wl, 5) == 2

    def test_preemptive_bound_job_width_one(self):
        """A single sequential job cannot use two machines at once."""
        wl = make_workload([2], [(0, 0, 10)])
        assert preemptive_max_units(wl, 5) == 5

    def test_preemptive_bound_empty(self):
        wl = make_workload([2], [])
        assert preemptive_max_units(wl, 10) == 0
        assert preemptive_max_units(make_workload([0], [(0, 0, 1)]), 10) == 0

    def test_cheap_bound_dominates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            wl = random_adversarial_workload(rng)
            t = int(rng.integers(1, 30))
            assert preemptive_max_units(wl, t) <= work_upper_bound(wl, t)

    def test_greedy_cannot_beat_preemptive_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            wl = random_adversarial_workload(rng)
            t = int(rng.integers(1, 30))
            assert greedy_busy_units(wl, t, fifo_select) <= preemptive_max_units(
                wl, t
            )


class TestFigure7:
    def test_exact_ratios(self):
        best, worst = figure7_ratios()
        assert best == 1.0
        assert worst == 0.75  # the tight Theorem 6.2 example

    def test_workload_shape(self):
        wl = figure7_workload()
        assert wl.n_machines == 4
        assert sorted(j.size for j in wl.jobs) == [3, 3, 3, 3, 6, 6]
        assert preemptive_max_units(wl, 6) == 24  # 100% is achievable


def _policies():
    """A diverse set of greedy selection policies (the theorem quantifies
    over *all* of them)."""
    def longest_queue(engine):
        return max(engine.waiting_orgs(), key=lambda u: (engine.waiting_count(u), -u))

    def reverse_fifo(engine):
        return max(engine.waiting_orgs(), key=lambda u: (engine.head_release(u), u))

    def lowest_org(engine):
        return engine.waiting_orgs()[0]

    return [fifo_select, longest_queue, reverse_fifo, lowest_org]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 20_000), t=st.integers(4, 40))
def test_theorem_6_2_on_random_instances(seed, t):
    """Every greedy policy achieves >= 3/4 of the preemptive optimum."""
    rng = np.random.default_rng(seed)
    wl = random_adversarial_workload(rng)
    for policy in _policies():
        assert competitive_ratio(wl, t, policy) >= 0.75 - 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 20_000))
def test_theorem_6_2_on_generic_workloads(seed):
    rng = np.random.default_rng(seed)
    wl = random_workload(rng, n_orgs=3, n_jobs=15, sizes=(1, 2, 6, 9))
    t = int(rng.integers(3, 25))
    assert competitive_ratio(wl, t, fifo_select) >= 0.75 - 1e-12


def test_figure7_is_the_worst_case_among_policies():
    """On the Fig. 7 instance no greedy policy drops below 75%."""
    wl = figure7_workload()
    for policy in _policies():
        assert competitive_ratio(wl, 6, policy) >= 0.75 - 1e-12
