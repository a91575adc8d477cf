"""Ablation A3: event-driven engine vs the per-tick reference simulator.

The production engine only acts at release/completion events; the paper's
pseudo-code ticks every time moment.  The schedules are identical (proved in
tests); this benchmark quantifies the speedup and times the engine's core
operations that dominate every scheduler in the library.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.greedy import fifo_select
from repro.core.engine import ClusterEngine
from .conftest import FULL
from tests.conftest import random_workload
from tests.tick_reference import TickSimulator


def _workload(scale: int):
    rng = np.random.default_rng(42)
    return random_workload(
        rng,
        n_orgs=4,
        n_jobs=60 * scale,
        max_release=200 * scale,
        sizes=(1, 3, 9, 27),
        machine_counts=[2, 1, 1, 1],
    )


def test_event_driven_engine(benchmark):
    wl = _workload(4 if FULL else 1)

    def run():
        eng = ClusterEngine(wl)
        eng.drive(fifo_select)
        return eng

    eng = benchmark(run)
    assert eng.done()


def test_tick_reference(benchmark):
    wl = _workload(4 if FULL else 1)
    horizon = max(j.release for j in wl.jobs) + sum(j.size for j in wl.jobs)

    def tick_fifo(sim):
        return min(sim.waiting_orgs(), key=lambda u: (sim.head_release(u), u))

    def run():
        return TickSimulator(wl).run(tick_fifo, until=horizon)

    sched = benchmark(run)

    # cross-check: identical schedule to the event-driven engine
    eng = ClusterEngine(wl)
    eng.drive(fifo_select)
    assert sched == eng.schedule()


def test_psi_query_throughput(benchmark):
    """Per-event utility vector queries -- the inner loop of REF/RAND."""
    wl = _workload(2 if FULL else 1)
    eng = ClusterEngine(wl)
    eng.drive(fifo_select)
    t = eng.t

    def query():
        return eng.psis(t)

    psis = benchmark(query)
    assert len(psis) == wl.n_orgs


def test_ref_event_cost(benchmark):
    """One full REF run on a small instance: the 3^k per-event machinery."""
    rng = np.random.default_rng(3)
    wl = random_workload(
        rng, n_orgs=4, n_jobs=40, max_release=60,
        sizes=(1, 2, 5), machine_counts=[1, 1, 1, 1],
    )
    from repro.algorithms.ref import RefScheduler

    def run():
        return RefScheduler().run(wl)

    result = benchmark(run)
    assert len(result.schedule) == 40


def ref_k8_workload():
    """The REF k=8 scaling instance (255 coalition engines per event) --
    the speedup target of the CoalitionFleet refactor, and the instance
    ``bench_smallk.py`` guards both dispatch thresholds on."""
    rng = np.random.default_rng(8)
    return random_workload(
        rng, n_orgs=8, n_jobs=48, max_release=60,
        sizes=(1, 2, 5), machine_counts=[1] * 8,
    )


def test_ref_k8_event_loop(benchmark):
    """The full REF event loop at k=8: batched fleet values + vectorized
    UpdateVals vs the seed's pure-Python 2^k passes (>= 2x target)."""
    wl = ref_k8_workload()
    from repro.algorithms.ref import RefScheduler

    def run():
        return RefScheduler().run(wl)

    result = benchmark(run)
    assert len(result.schedule) == 48
