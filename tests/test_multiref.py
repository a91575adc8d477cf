"""Tests for the cross-instance batched REF driver: bit-identity against
the per-instance scheduler, per-instance certification fallback (one
overflowing instance never evicts its batch siblings), and the jagged
lockstep handling of instances with very different event counts."""

import numpy as np
import pytest

from repro.algorithms.multiref import batchable, ref_results_batched
from repro.algorithms.ref import RefScheduler
from repro.core.job import Job
from repro.core.multikernel import MultiInstanceKernel, instance_bound
from repro.core.kernel import KernelUnsafe, _QUERY_CAP
from repro.core.organization import Organization
from repro.core.workload import Workload


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


class TestBatchedRefBitIdentity:
    def test_matches_serial_across_k_and_horizons(self):
        items = [
            (rand_workload(5, 3, 40, 1), 250),
            (rand_workload(5, 2, 25, 2), None),  # run to exhaustion
            (rand_workload(6, 2, 30, 3), 180),
            (rand_workload(5, 4, 60, 4), 300),
        ]
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
            MultiInstanceKernel([(huge_workload(), [1, 2, 3], None)])


class TestMultiKernelInternals:
    def test_instance_bound_folds_horizon(self):
        wl = rand_workload(5, 2, 10, 31, max_rel=50)
        assert instance_bound(wl, 10_000) > instance_bound(wl, None)

    def test_row_blocks_and_instance_map(self):
        a = rand_workload(5, 2, 10, 41)
        b = rand_workload(5, 3, 15, 42)
        masks = [1, 3, 7, 31]
        kern = MultiInstanceKernel([(a, masks, 100), (b, masks, 100)])
        assert kern.n == 2 * len(masks)
        assert list(kern.row0) == [0, len(masks)]
        assert list(kern.row_inst) == [0] * len(masks) + [1] * len(masks)
        # padding machine columns of the narrower instance are never free
        assert kern.n_mach_max == max(a.n_machines, b.n_machines)
        assert kern.free[: len(masks), a.n_machines :].sum() == 0
