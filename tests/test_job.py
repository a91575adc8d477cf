"""Unit tests for repro.core.job."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.job import (
    Job,
    iter_release_times,
    merge_jobs,
    sort_jobs,
    split_job,
    validate_jobs,
)
from repro.core.schedule import ScheduledJob


class TestJobConstruction:
    def test_basic_fields(self):
        j = Job(release=3, org=1, index=0, size=5, id=7)
        assert (j.release, j.org, j.index, j.size, j.id) == (3, 1, 0, 5, 7)

    def test_default_id(self):
        assert Job(0, 0, 0, 1).id == -1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(release=-1, org=0, index=0, size=1),
            dict(release=0, org=-1, index=0, size=1),
            dict(release=0, org=0, index=-1, size=1),
            dict(release=0, org=0, index=0, size=0),
            dict(release=0, org=0, index=0, size=-2),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Job(**kwargs)

    def test_jobs_are_immutable(self):
        j = Job(0, 0, 0, 1)
        with pytest.raises(AttributeError):
            j.size = 2

    def test_ordering_is_submission_order(self):
        a = Job(0, 0, 0, 9)
        b = Job(0, 1, 0, 1)
        c = Job(1, 0, 1, 1)
        assert sort_jobs([c, b, a]) == [a, b, c]


class TestManipulations:
    def test_delayed(self):
        j = Job(5, 0, 0, 2)
        assert j.delayed(3).release == 8
        assert j.delayed(0).release == 5

    def test_delayed_negative_rejected(self):
        with pytest.raises(ValueError):
            Job(0, 0, 0, 1).delayed(-1)

    def test_inflated(self):
        assert Job(0, 0, 0, 2).inflated(3).size == 5

    def test_inflated_negative_rejected(self):
        with pytest.raises(ValueError):
            Job(0, 0, 0, 1).inflated(-1)

    def test_split_job_sizes(self):
        pieces = split_job(Job(2, 1, 3, 6), [1, 2, 3])
        assert [p.size for p in pieces] == [1, 2, 3]
        assert all(p.release == 2 and p.org == 1 for p in pieces)
        assert [p.index for p in pieces] == [3, 4, 5]

    def test_split_job_bad_sizes(self):
        with pytest.raises(ValueError):
            split_job(Job(0, 0, 0, 5), [2, 2])
        with pytest.raises(ValueError):
            split_job(Job(0, 0, 0, 5), [5, 0])

    def test_merge_jobs(self):
        a = Job(0, 2, 4, 2)
        b = Job(1, 2, 5, 3)
        m = merge_jobs([a, b])
        assert m.size == 5
        assert m.index == 4
        assert m.release == 1  # merged work available when last piece is

    def test_merge_rejects_mixed_orgs(self):
        with pytest.raises(ValueError):
            merge_jobs([Job(0, 0, 0, 1), Job(0, 1, 0, 1)])

    def test_merge_rejects_non_consecutive(self):
        with pytest.raises(ValueError):
            merge_jobs([Job(0, 0, 0, 1), Job(0, 0, 2, 1)])

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_jobs([])


class TestValidation:
    def test_valid_stream_passes(self):
        validate_jobs(
            [Job(0, 0, 0, 1), Job(2, 0, 1, 1), Job(0, 1, 0, 4)]
        )

    def test_gap_in_indices_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            validate_jobs([Job(0, 0, 0, 1), Job(0, 0, 2, 1)])

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            validate_jobs([Job(0, 0, 0, 1), Job(1, 0, 0, 1)])

    def test_decreasing_release_rejected(self):
        with pytest.raises(ValueError, match="FIFO"):
            validate_jobs([Job(5, 0, 0, 1), Job(3, 0, 1, 1)])

    def test_release_times_iterator(self):
        jobs = [Job(3, 0, 0, 1), Job(1, 1, 0, 1), Job(3, 1, 1, 1)]
        assert list(iter_release_times(jobs)) == [1, 3]


@given(
    release=st.integers(0, 100),
    size=st.integers(1, 50),
    pieces=st.lists(st.integers(1, 10), min_size=1, max_size=5),
)
def test_split_then_merge_roundtrip(release, size, pieces):
    """Splitting then merging recovers the original size and position."""
    total = sum(pieces)
    job = Job(release, 0, 0, total)
    split = split_job(job, pieces)
    merged = merge_jobs(split)
    assert merged.size == job.size
    assert merged.index == job.index
    assert merged.release == job.release



_job_fields = st.tuples(
    st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
    st.integers(1, 3), st.integers(-1, 3),
)
_bad_fields = st.one_of(
    st.tuples(
        st.sampled_from(["release", "org", "index"]), st.integers(-3, -1)
    ),
    st.tuples(st.just("size"), st.integers(-2, 0)),
)


@given(
    fields=st.lists(_job_fields, min_size=1, max_size=6),
    places=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        min_size=6, max_size=6,
    ),
    bad=_bad_fields,
)
def test_records_are_their_field_tuples(fields, places, bad):
    """A Job and a ScheduledJob order, hash and compare exactly as their
    field tuples; every constructor path refuses a bad field; copies and
    pickles round-trip."""
    jobs = [Job(*f) for f in fields]
    entries = [ScheduledJob(s, m, j) for (s, m), j in zip(places, jobs)]
    rows = [(s, m, f) for (s, m), f in zip(places, fields)]
    for records, plain in ((jobs, fields), (entries, rows)):
        for a, fa in zip(records, plain):
            assert a == fa and hash(a) == hash(fa)
            for b, fb in zip(records, plain):
                assert (a < b, a <= b, a == b) == (fa < fb, fa <= fb, fa == fb)
        assert sorted(records) == sorted(plain)
        for a in records:
            for twin in (
                copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))
            ):
                assert type(twin) is type(a) and twin == a
    release, org, index, size, id_ = fields[0]
    assert repr(jobs[0]) == (
        f"Job(release={release}, org={org}, index={index}, size={size}, "
        f"id={id_})"
    )
    s, m = places[0]
    assert repr(entries[0]) == (
        f"ScheduledJob(start={s}, machine={m}, job={jobs[0]!r})"
    )
    name, value = bad
    kwargs = jobs[0]._asdict() | {name: value}
    for build in (
        lambda: Job(**kwargs),
        lambda: Job._make(kwargs.values()),
        lambda: jobs[0]._replace(**{name: value}),
    ):
        with pytest.raises(ValueError, match=name):
            build()
