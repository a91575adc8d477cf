"""Tests for the cross-instance batched REF driver: bit-identity against
the per-instance scheduler, per-instance certification fallback (one
overflowing instance never evicts its batch siblings), the jagged
lockstep handling of instances with very different event counts, and the
instance axis of the one coalition kernel (``FleetKernel.batch``)."""

from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.multiref import (
    _layout_for,
    batchable,
    ref_batch,
    ref_results_batched,
)
from repro.algorithms.ref import RefScheduler, fused_plan, guard_coefficients
from repro.core.job import Job
from repro.core.kernel import (
    _QUERY_CAP,
    FleetKernel,
    KernelUnsafe,
    instance_bound,
)
from repro.core.organization import Organization
from repro.core.workload import Workload

from .conftest import make_workload


def rand_workload(k, m_per, n_jobs, seed, max_rel=200, max_size=9):
    r = np.random.default_rng(seed)
    orgs = [Organization(i, int(r.integers(1, m_per + 1))) for i in range(k)]
    raw = sorted(
        (
            int(r.integers(0, max_rel)),
            int(r.integers(0, k)),
            int(r.integers(1, max_size)),
        )
        for _ in range(n_jobs)
    )
    per_org: dict[int, int] = {}
    jobs = []
    for rel, org, size in raw:
        idx = per_org.get(org, 0)
        per_org[org] = idx + 1
        jobs.append(Job(release=rel, org=org, index=idx, size=size))
    return Workload(orgs, jobs)


def huge_workload(k=5):
    """Fails the per-instance int64 certification by sheer job size."""
    return Workload(
        [Organization(i, 1) for i in range(k)],
        [Job(release=0, org=o, index=0, size=10**17) for o in range(k)],
    )


@st.composite
def ref_instances(draw):
    """One REF instance: k = 2..6 organizations (k = 6, drawn twice as
    often, puts the serial scheduler on the fleet kernel), a job stream with release ties and
    zero gaps, and a horizon that may be ``None``."""
    k = draw(st.sampled_from([2, 3, 4, 5, 6, 6]))
    # at most one machine per organization keeps queues long, so most
    # decision times are completions while work waits
    machines = draw(
        st.lists(st.integers(0, 1), min_size=k, max_size=k).filter(any)
    )
    n = draw(st.integers(0, 16))
    gaps = draw(
        st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n, max_size=n)
    )
    orgs = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    releases = np.cumsum(gaps).tolist()
    wl = make_workload(machines, list(zip(releases, orgs, sizes)))
    horizon = draw(st.one_of(st.none(), st.integers(1, 30)))
    return wl, horizon


class TestBatchedRefBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(ref_instances(), min_size=1, max_size=4))
    def test_matches_serial_on_generated_batches(self, items):
        """The multi-instance kernel finds each instance's decision times
        in its own sweep, so it is an oracle independent of the fleet's
        next-event rule: every batched schedule equals the serial one."""
        results = ref_results_batched(items)
        for (wl, horizon), res in zip(items, results):
            assert res is not None
            serial = RefScheduler(horizon=horizon).run(wl)
            assert res.schedule == serial.schedule
            assert res.algorithm == "REF"
            assert res.members == serial.members

    def test_jagged_event_counts_share_one_batch(self):
        """Wildly different event counts per instance: each instance's
        clock advances through its own event sequence only."""
        items = [
            (rand_workload(5, 2, 120, 7, max_rel=400), 600),
            (rand_workload(5, 2, 4, 8, max_rel=20), 600),
            (rand_workload(5, 1, 1, 9, max_rel=1), 600),
        ]
        for (wl, horizon), res in zip(items, ref_results_batched(items)):
            assert res is not None
            assert res.schedule == RefScheduler(horizon=horizon).run(wl).schedule

    def test_empty_workload_instance(self):
        empty = Workload([Organization(i, 1) for i in range(5)], [])
        busy = rand_workload(5, 2, 20, 11)
        results = ref_results_batched([(empty, 100), (busy, 100)])
        assert results[0] is not None and not results[0].schedule.entries
        assert (
            results[1].schedule
            == RefScheduler(horizon=100).run(busy).schedule
        )

    def test_single_instance_batch(self):
        wl = rand_workload(5, 3, 30, 21)
        (res,) = ref_results_batched([(wl, 200)])
        assert res.schedule == RefScheduler(horizon=200).run(wl).schedule


class TestPerInstanceCertification:
    def test_small_k_admitted_and_identical(self):
        """Every k rides the batch (``batchable`` no longer borrows REF's
        single-instance ``VECTORIZE_MIN_K``): k=1..4 equal the dict-path
        per-instance schedule."""
        items = [
            (rand_workload(k, 2, 10 + 5 * k, seed), 100)
            for k in (1, 2, 3, 4)
            for seed in (5, 6)
        ]
        for (wl, horizon), res in zip(items, ref_results_batched(items)):
            assert batchable(wl, horizon)
            assert res is not None
            assert res.schedule == RefScheduler(horizon=horizon).run(wl).schedule

    def test_overflow_not_admitted(self):
        huge = huge_workload()
        assert instance_bound(huge, None) >= _QUERY_CAP
        assert not batchable(huge, None)

    def test_guard_coefficients_are_a_function_of_k(self):
        """The static and per-round guards' coefficients at k = 1..8: the
        largest ``UpdateVals`` row weight (``k! + (k-1)·(k-1)!``) and
        ``k!``, the same from the helper and from a built plan."""
        max_rw = [1, 3, 10, 42, 216, 1320, 9360, 75600]
        for k, rw in enumerate(max_rw, start=1):
            assert guard_coefficients(k) == (rw, factorial(k))
            _, groups, index, solver = _layout_for(k)
            plan = fused_plan(solver, groups, index, [0])
            assert plan[3:] == (rw, factorial(k))

    def test_overflow_sibling_does_not_perturb_batch(self):
        """The eviction contract: the middle instance fails certification
        and comes back None; its siblings' schedules are exactly the
        per-instance results."""
        items = [
            (rand_workload(5, 3, 40, 11, max_rel=60), 200),
            (huge_workload(), 10**18),
            (rand_workload(5, 2, 30, 12, max_rel=60), 200),
        ]
        results = ref_results_batched(items)
        assert results[1] is None
        for j in (0, 2):
            assert results[j] is not None
            serial = RefScheduler(horizon=items[j][1]).run(items[j][0])
            assert results[j].schedule == serial.schedule

    def test_kernel_rejects_uncertified_instance(self):
        with pytest.raises(KernelUnsafe):
            FleetKernel.batch([(huge_workload(), [1, 2, 3], None)])

    @settings(max_examples=30, deadline=None)
    @given(items=st.lists(ref_instances(), min_size=1, max_size=4))
    def test_admitted_batches_never_decline_a_round(self, items):
        """DESIGN §10.3: ``batchable``'s static guard dominates the shared
        round's runtime checks, so over an admitted batch the round never
        declines -- neither an uncertifiable clock (``unsafe``) nor the
        int64 key guard (``guard``) -- so each run reaches every
        horizon."""
        by_k: dict = {}
        for wl, horizon in items:
            assert batchable(wl, horizon)
            by_k.setdefault(wl.n_orgs, []).append((wl, horizon))
        for batch in by_k.values():
            kern, seen = ref_batch(batch)
            assert seen["unsafe"] == seen["guard"] == 0
            assert kern.sweep() is None  # ran to every horizon


class TestMultiKernelInternals:
    def test_instance_bound_folds_horizon(self):
        wl = rand_workload(5, 2, 10, 31, max_rel=50)
        assert instance_bound(wl, 10_000) > instance_bound(wl, None)

    def test_row_blocks_and_instance_map(self):
        a = rand_workload(5, 2, 10, 41)
        b = rand_workload(5, 3, 15, 42)
        masks = [1, 3, 7, 31]
        kern = FleetKernel.batch([(a, masks, 100), (b, masks, 100)])
        assert kern.B == 2
        assert kern.n == 2 * len(masks)
        assert list(kern.row0) == [0, len(masks)]
        assert list(kern.row_inst) == [0] * len(masks) + [1] * len(masks)
        # padding machine columns of the narrower instance are never free
        assert kern.rec.free.shape[1] == max(a.n_machines, b.n_machines)
        assert kern.rec.free[: len(masks), a.n_machines :].sum() == 0
