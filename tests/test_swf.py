"""Tests for the SWF parser/writer (Parallel Workloads Archive format)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.swf import SwfJob, parse_swf, write_swf

SAMPLE = """\
; Version: 2.2
; Computer: Test Cluster
; MaxProcs: 128
1 0 5 100 1 -1 -1 1 200 -1 1 3 1 -1 1 -1 -1 -1
2 10 0 50 4 -1 -1 4 60 -1 1 5 1 -1 1 -1 -1 -1
3 20 2 75 2 -1 -1 2 80 -1 0 3 1 -1 1 -1 -1 -1
"""


class TestParse:
    def test_basic_fields(self):
        trace = parse_swf(SAMPLE)
        assert len(trace) == 3
        j = trace.jobs[0]
        assert (j.job_id, j.submit, j.wait, j.run, j.cpus, j.user) == (
            1, 0, 5, 100, 1, 3,
        )

    def test_header_preserved(self):
        trace = parse_swf(SAMPLE)
        assert len(trace.header) == 3
        assert trace.max_procs == 128

    def test_max_procs_fallback(self):
        trace = parse_swf("1 0 0 10 8 -1 -1 8")
        assert trace.max_procs == 8

    def test_n_users(self):
        trace = parse_swf(SAMPLE)
        assert trace.n_users == 2  # users 3 and 5

    def test_short_lines_padded(self):
        trace = parse_swf("7 100 0 60 1")
        j = trace.jobs[0]
        assert j.job_id == 7 and j.run == 60
        assert j.user == -1  # padded with SWF 'unknown'

    def test_blank_lines_skipped(self):
        trace = parse_swf("\n1 0 0 10 1\n\n2 5 0 10 1\n")
        assert len(trace) == 2

    def test_too_many_fields_rejected(self):
        line = " ".join(str(i) for i in range(19))
        with pytest.raises(ValueError, match="fields"):
            parse_swf(line)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_swf("1 0 zero 10 1")

    def test_float_values_truncated(self):
        trace = parse_swf("1 0 0 10.0 1")
        assert trace.jobs[0].run == 10


class TestWrite:
    def test_round_trip(self):
        trace = parse_swf(SAMPLE)
        text = write_swf(trace)
        again = parse_swf(text)
        assert again.jobs == trace.jobs
        assert again.header == trace.header

    def test_write_to_file(self, tmp_path):
        trace = parse_swf(SAMPLE)
        path = tmp_path / "trace.swf"
        write_swf(trace, path)
        from repro.workloads.swf import load_swf

        assert load_swf(path).jobs == trace.jobs

    def test_write_bare_job_list(self):
        jobs = [SwfJob(job_id=1, submit=0, run=5)]
        text = write_swf(jobs)
        assert parse_swf(text).jobs[0].run == 5


@settings(max_examples=30)
@given(
    jobs=st.lists(
        st.builds(
            SwfJob,
            job_id=st.integers(1, 10**6),
            submit=st.integers(0, 10**7),
            wait=st.integers(-1, 10**5),
            run=st.integers(1, 10**6),
            cpus=st.integers(1, 4096),
            user=st.integers(-1, 500),
        ),
        max_size=20,
    )
)
def test_roundtrip_property(jobs):
    assert parse_swf(write_swf(jobs)).jobs == tuple(jobs)
