"""Tests for synthetic trace generation, trace profiles and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.swf import SwfJob
from repro.workloads.synthetic import SyntheticSpec, generate_jobs
from repro.workloads.traces import (
    PAPER_TRACES,
    TRACE_PROFILES,
    make_trace,
)
from repro.workloads.transforms import (
    assign_users_to_orgs,
    build_window,
    build_workload,
    parallel_to_sequential,
    uniform_machine_split,
    zipf_machine_split,
)


class TestSyntheticSpec:
    def test_validation(self):
        good = dict(n_machines=4, n_users=4, horizon=100, load=0.5)
        SyntheticSpec(**good)
        for field, bad in [
            ("n_machines", 0),
            ("n_users", 0),
            ("horizon", 0),
            ("load", 0),
            ("diurnal_amplitude", 2.0),
            ("parallel_prob", 1.0),
        ]:
            with pytest.raises(ValueError):
                SyntheticSpec(**{**good, field: bad})


class TestGenerator:
    def spec(self, **kw):
        base = dict(
            n_machines=8,
            n_users=6,
            horizon=2_000,
            load=0.7,
            size_mu=3.0,
            size_sigma=1.0,
            max_size=200,
            session_jobs_mean=5.0,
            session_gap_mean=10.0,
        )
        base.update(kw)
        return SyntheticSpec(**base)

    def test_deterministic_given_seed(self):
        a = generate_jobs(self.spec(), np.random.default_rng(5))
        b = generate_jobs(self.spec(), np.random.default_rng(5))
        assert a == b

    def test_load_calibration(self):
        jobs = generate_jobs(self.spec(), np.random.default_rng(0))
        work = sum(j.run * max(1, j.cpus) for j in jobs)
        target = 0.7 * 8 * 2_000
        assert 0.7 * target <= work <= 1.3 * target

    def test_submits_within_horizon_and_sorted(self):
        jobs = generate_jobs(self.spec(), np.random.default_rng(1))
        assert all(0 <= j.submit < 2_000 for j in jobs)
        assert all(
            a.submit <= b.submit for a, b in zip(jobs, jobs[1:])
        )
        assert [j.job_id for j in jobs] == list(range(1, len(jobs) + 1))

    def test_users_in_range(self):
        jobs = generate_jobs(self.spec(), np.random.default_rng(2))
        assert all(0 <= j.user < 6 for j in jobs)

    def test_sizes_bounded(self):
        jobs = generate_jobs(self.spec(max_size=50), np.random.default_rng(3))
        assert all(1 <= j.run <= 50 for j in jobs)

    def test_parallel_widths(self):
        spec = self.spec(parallel_prob=0.5, parallel_max=4)
        jobs = generate_jobs(spec, np.random.default_rng(4))
        widths = {j.cpus for j in jobs}
        assert widths <= {1, 2, 3, 4}
        assert any(w > 1 for w in widths)

    def test_flat_arrivals_without_diurnal(self):
        spec = self.spec(diurnal_amplitude=0.0)
        jobs = generate_jobs(spec, np.random.default_rng(5))
        assert len(jobs) > 10


class TestTraceProfiles:
    def test_paper_traces_present(self):
        assert set(PAPER_TRACES) == set(TRACE_PROFILES)
        assert TRACE_PROFILES["RICC"].n_machines == 8192
        assert TRACE_PROFILES["LPC-EGEE"].n_users == 56

    def test_spec_scaling(self):
        prof = TRACE_PROFILES["RICC"]
        full = prof.spec(horizon=1000, scale=1.0)
        small = prof.spec(horizon=1000, scale=0.01)
        assert full.n_machines == 8192
        assert small.n_machines == 82
        assert small.max_size < full.max_size
        assert small.load == full.load  # load factor preserved

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            TRACE_PROFILES["RICC"].spec(100, scale=0.0)
        with pytest.raises(ValueError):
            TRACE_PROFILES["RICC"].spec(100, scale=1.5)

    def test_make_trace(self):
        jobs, spec = make_trace("LPC-EGEE", 500, seed=0, scale=0.1)
        assert spec.n_machines == 7
        assert all(j.submit < 500 for j in jobs)
        with pytest.raises(KeyError):
            make_trace("NO-SUCH-TRACE", 500)

    def test_make_trace_deterministic(self):
        a, _ = make_trace("RICC", 400, seed=3, scale=0.005)
        b, _ = make_trace("RICC", 400, seed=3, scale=0.005)
        assert a == b


class TestTransforms:
    def test_parallel_to_sequential(self):
        jobs = [
            SwfJob(job_id=1, submit=0, run=10, cpus=3, user=1),
            SwfJob(job_id=2, submit=5, run=7, cpus=1, user=2),
        ]
        seq = parallel_to_sequential(jobs)
        assert len(seq) == 4
        assert all(j.cpus == 1 for j in seq)
        assert sum(j.run for j in seq) == 3 * 10 + 7
        assert [j.job_id for j in seq] == [1, 2, 3, 4]

    def test_assign_users_balanced(self):
        rng = np.random.default_rng(0)
        mapping = assign_users_to_orgs(list(range(20)), 4, rng)
        counts = [0] * 4
        for org in mapping.values():
            counts[org] += 1
        assert counts == [5, 5, 5, 5]

    def test_assign_users_keeps_users_whole(self):
        rng = np.random.default_rng(0)
        users = [3, 3, 3, 7, 7]
        mapping = assign_users_to_orgs(users, 2, rng)
        assert set(mapping) == {3, 7}

    def test_zipf_split_sums_and_sorted(self):
        counts = zipf_machine_split(70, 5)
        assert sum(counts) == 70
        assert counts == sorted(counts, reverse=True)
        assert all(c >= 1 for c in counts)

    def test_zipf_split_small_pool(self):
        assert sum(zipf_machine_split(3, 5)) == 3

    def test_uniform_split(self):
        assert uniform_machine_split(7, 3) == [3, 2, 2]
        assert uniform_machine_split(6, 3) == [2, 2, 2]

    def test_build_workload(self):
        jobs = [
            SwfJob(job_id=1, submit=0, run=5, cpus=2, user=10),
            SwfJob(job_id=2, submit=3, run=4, cpus=1, user=20),
        ]
        wl = build_workload(jobs, [2, 1], {10: 0, 20: 1})
        assert wl.n_orgs == 2
        # user 10's 2-wide job became two sequential copies for org 0
        assert [j.size for j in wl.jobs_of(0)] == [5, 5]
        assert [j.size for j in wl.jobs_of(1)] == [4]

    def test_build_workload_drops_unmapped_users(self):
        jobs = [SwfJob(job_id=1, submit=0, run=5, cpus=1, user=99)]
        wl = build_workload(jobs, [1], {10: 0})
        assert len(wl.jobs) == 0


@st.composite
def windowed_traces(draw):
    """Records with parallel widths, negative and tied submits, users
    missing from the map, and a window whose edges often sit on a
    record's submit time (or hold nothing)."""
    n = draw(st.integers(0, 14))
    ids = draw(st.permutations(range(1, n + 1)))
    records = [
        SwfJob(
            job_id=job_id,
            submit=draw(st.integers(-2, 20)),
            run=draw(st.integers(0, 6)),
            cpus=draw(st.integers(1, 3)),
            user=draw(st.integers(0, 5)),
        )
        for job_id in ids
    ]
    k = draw(st.integers(1, 3))
    machines = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    user_map = draw(
        st.dictionaries(st.integers(0, 5), st.integers(0, k - 1))
    )
    edges = sorted({0, 25, *(max(0, r.submit) for r in records)})
    start = draw(st.sampled_from(edges))
    end = draw(st.sampled_from([e for e in edges if e >= start]))
    return records, machines, user_map, start, end


class TestBuildWindow:
    @settings(max_examples=150, deadline=None)
    @given(case=windowed_traces(), sequentialize=st.booleans())
    def test_equals_build_then_window(self, case, sequentialize):
        records, machines, user_map, start, end = case
        full = build_workload(
            records, machines, user_map, sequentialize=sequentialize
        )
        got = build_window(
            records, machines, user_map, start, end,
            sequentialize=sequentialize,
        )
        assert got == full.window(start, end)

    def test_empty_window_keeps_the_organizations(self):
        jobs = [SwfJob(job_id=1, submit=4, run=2, cpus=2, user=1)]
        wl = build_window(jobs, [2, 1], {1: 0}, 4, 4)
        assert len(wl.jobs) == 0
        assert [o.machines for o in wl.organizations] == [2, 1]

    def test_rejects_reversed_window(self):
        with pytest.raises(ValueError):
            build_window([], [1], {}, 5, 3)
