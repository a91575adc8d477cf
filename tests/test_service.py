"""Online service tests: replay == batch, snapshot/restore, membership.

The load-bearing guarantees (ISSUE 3 acceptance criteria):

* streaming any workload -- including one instance of every registered
  scenario family -- through :class:`~repro.service.ClusterService`
  yields **bit-identical** schedules to the batch ``sim/runner.py`` path,
  for every policy;
* the equivalence survives kill / ``restore()`` / resume cycles
  mid-stream (the event-sourced snapshot is a sufficient statistic);
* the golden seed transcripts (tests/golden_transcripts.py) are
  reproduced by the *online* path too, pinning the service to the
  original seed implementations across two refactor generations;
* dynamic membership behaves as documented in DESIGN.md §6 (leavers'
  running jobs finish, waiting jobs are withdrawn, machines drain).
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ClusterEngine
from repro.core.job import Job
from repro.service import ClusterService, ReplayDriver, replay_scenario
from repro.service.daemon import serve_loop
from repro.policies import build_scheduler, policy_names
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    check_snapshot,
    content_hash,
)
from repro.service.state import OP_FIELDS

from .conftest import as_version_1, make_workload, random_workload
from .golden_transcripts import GOLDEN

ALL_POLICIES = sorted(policy_names("step"))

SWF_FIXTURE = str(Path(__file__).parent / "data" / "tiny.swf")


def _transcript(schedule):
    return [
        (e.start, e.machine, e.job.org, e.job.index, e.job.size)
        for e in schedule
    ]


def _k3_workload(seed: int):
    rng = np.random.default_rng(seed)
    return random_workload(
        rng, n_orgs=3, n_jobs=14, max_release=12,
        sizes=(1, 2, 3), machine_counts=[1, 2, 1],
    )


# ----------------------------------------------------------------------
# replay == batch
# ----------------------------------------------------------------------
class TestReplayEqualsBatch:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_workload(self, policy, seed):
        rng = np.random.default_rng(100 + seed)
        wl = random_workload(rng, n_orgs=3, n_jobs=25, max_release=15)
        report = ReplayDriver(wl, policy, seed=seed).run()
        assert report.equivalent, _transcript(report.schedule)
        assert report.n_jobs == len(wl.jobs)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_with_horizon(self, policy):
        rng = np.random.default_rng(7)
        wl = random_workload(rng, n_orgs=3, n_jobs=30, max_release=25)
        report = ReplayDriver(wl, policy, seed=3, horizon=15).run()
        assert report.equivalent

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_kill_restore_every_two_groups(self, policy):
        """The acceptance bullet: snapshot / kill / restore mid-stream is
        invisible in the output."""
        rng = np.random.default_rng(42)
        wl = random_workload(rng, n_orgs=3, n_jobs=20, max_release=12)
        report = ReplayDriver(wl, policy, seed=1, snapshot_every=2).run()
        assert report.n_snapshots > 0
        assert report.equivalent

    def test_empty_workload(self):
        wl = make_workload([1, 1], [])
        report = ReplayDriver(wl, "ref").run()
        assert report.equivalent
        assert len(report.schedule) == 0


# ----------------------------------------------------------------------
# caller-side grouping of submits
# ----------------------------------------------------------------------
class TestMicroBatchedIngest:
    """DESIGN.md §9.2: ``submit`` feeds the policy at once and never runs
    a round for a job whose release is still ahead, so how many jobs a
    caller announces between two advances is invisible in the output.
    (The service's own ingest buffer and its ``batch_max`` knob went in
    PR 23; batching is the caller's now, as the gateway's frames do it.)"""

    def _stream(self, policy: str, group: "int | None"):
        """Announce the stream ``group`` jobs at a time (``None``: all up
        front), advancing to just before each group's first release --
        never onto it: a round that ran before a same-time job arrived
        is a different, journaled, history."""
        rng = np.random.default_rng(11)
        wl = random_workload(
            rng, n_orgs=3, n_jobs=18, max_release=12,
            machine_counts=[2, 1, 1],
        )
        jobs = sorted(wl.jobs)
        svc = ClusterService(wl.machine_counts(), policy, seed=0)
        step = len(jobs) if group is None else group
        for i in range(0, len(jobs), step):
            if jobs[i].release:
                svc.advance(jobs[i].release - 1)
            for job in jobs[i : i + step]:
                svc.submit_job(job)
        svc.drain()
        return svc

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("group", [3, None])
    def test_batch_size_invisible_in_output(self, policy, group):
        base = self._stream(policy, 1)
        other = self._stream(policy, group)
        assert other.schedule() == base.schedule()
        assert other.n_events == base.n_events
        assert len(other.schedule()) == 18


class TestGoldenReplay:
    """The online path reproduces the seed implementations' transcripts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ref(self, seed):
        wl = _k3_workload(seed)
        report = ReplayDriver(wl, "ref", snapshot_every=3).run()
        assert _transcript(report.schedule) == GOLDEN[f"k3_seed{seed}"]["ref"]
        assert report.equivalent

    @pytest.mark.parametrize("seed", range(4))
    def test_ref_horizon(self, seed):
        wl = _k3_workload(seed)
        report = ReplayDriver(wl, "ref", horizon=10).run()
        assert (
            _transcript(report.schedule) == GOLDEN[f"k3_seed{seed}"]["ref_h10"]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_rand(self, seed):
        wl = _k3_workload(seed)
        report = ReplayDriver(
            wl,
            "rand",
            seed=seed,
            snapshot_every=4,
            policy_params={"n_orderings": 5},
        ).run()
        assert _transcript(report.schedule) == GOLDEN[f"k3_seed{seed}"]["rand"]
        assert report.equivalent

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_contr(self, seed):
        wl = _k3_workload(seed)
        report = ReplayDriver(wl, "directcontr", seed=seed, snapshot_every=3).run()
        assert (
            _transcript(report.schedule)
            == GOLDEN[f"k3_seed{seed}"]["direct_exact"]
        )
        assert report.equivalent


class TestScenarioFamilies:
    """One instance of every registered family, streamed through the
    service and verified against the batch path (with mid-stream
    kill/restore), scored through the METRICS registry."""

    CASES = [
        (
            "table1",
            dict(traces=("LPC-EGEE",), duration=1_200, n_repeats=1,
                 scale=0.15, n_orgs=3),
        ),
        ("federated", dict(duration=600, n_repeats=1, n_orgs=3)),
        (
            "churn",
            dict(duration=700, n_repeats=1, org_counts=(3,),
                 zipf_exponents=(1.0,)),
        ),
        (
            "swf",
            dict(duration=400, n_repeats=1, n_orgs=3, swf_path=SWF_FIXTURE),
        ),
    ]

    @pytest.mark.parametrize("name,overrides", CASES)
    @pytest.mark.parametrize("policy", ["directcontr", "ref"])
    def test_family_replay(self, name, overrides, policy):
        report = replay_scenario(
            name,
            policy=policy,
            snapshot_every=7,
            metrics=("avg_delay", "makespan"),
            **overrides,
        )
        assert report.equivalent, (name, policy)
        assert report.n_jobs > 0
        assert set(report.metrics) == {"avg_delay", "makespan"}

    def test_metrics_match_batch_scoring(self):
        """Replayed metrics equal the batch path's scoring exactly."""
        from repro.algorithms.ref import RefScheduler
        from repro.experiments.registry import get_family, scenario_spec
        from repro.sim.runner import METRICS

        spec = scenario_spec(
            "swf", duration=400, n_repeats=1, n_orgs=3, swf_path=SWF_FIXTURE
        )
        inst = spec.instances()[0]
        workload, alg_seed = get_family(spec.family)(spec, inst)
        report = replay_scenario(
            "swf", policy="directcontr", metrics=("avg_delay",),
            duration=400, n_repeats=1, n_orgs=3, swf_path=SWF_FIXTURE,
        )
        batch = build_scheduler(
            "directcontr", seed=alg_seed, horizon=spec.duration
        )
        batch_result = batch.run(workload)
        ref_result = RefScheduler(horizon=spec.duration).run(workload)
        want = METRICS["avg_delay"](batch_result, ref_result, spec.duration)
        assert report.metrics["avg_delay"] == want


# ----------------------------------------------------------------------
# snapshot format
# ----------------------------------------------------------------------
class TestSnapshotFormat:
    def _service(self, policy="directcontr"):
        svc = ClusterService([2, 1], policy, seed=0)
        svc.submit(0, 3)
        svc.submit(1, 2)
        svc.advance(6)
        return svc

    def test_round_trip_identical(self):
        svc = self._service()
        snap = svc.snapshot()
        restored = ClusterService.restore(snap)
        assert restored.schedule() == svc.schedule()
        assert restored.clock == svc.clock
        assert restored.n_events == svc.n_events
        # snapshot of the restored service is byte-identical
        assert restored.snapshot() == snap

    def test_content_hash_detects_tampering(self):
        snap = self._service().snapshot()
        assert snap["journal"][0] == ["submit", 0, 0, 3, 0, 0, 0]
        snap["journal"][0][OP_FIELDS["submit"].index("size") + 2] = 99
        with pytest.raises(ValueError, match="hash mismatch"):
            ClusterService.restore(snap)

    def test_version_gate(self):
        snap = self._service().snapshot()
        snap["version"] = SNAPSHOT_VERSION + 1
        snap["content_hash"] = content_hash(snap)
        with pytest.raises(ValueError, match="version"):
            check_snapshot(snap)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a service snapshot"):
            check_snapshot({"format": "something-else"})

    def test_restore_after_mutations_continues_identically(self):
        """A restored daemon accepts further traffic exactly like the
        original would have."""
        def drive(svc):
            svc.submit(0, 2)
            svc.advance(10)
            svc.submit(1, 1, release=12)
            svc.drain()
            return svc

        live = drive(self._service())
        resumed = drive(ClusterService.restore(self._service().snapshot()))
        assert resumed.schedule() == live.schedule()
        assert resumed.psis() == live.psis()

    def test_save_load_file(self, tmp_path):
        from repro.service import load_snapshot, save_snapshot

        snap = self._service("rand").snapshot()
        path = save_snapshot(snap, tmp_path / "svc.json")
        assert load_snapshot(path) == snap

    def test_op_kind_validated(self):
        snap = self._service().snapshot()
        snap["journal"].append(["frobnicate", 6])
        with pytest.raises(ValueError, match="row 3: unknown op kind"):
            ClusterService.restore(_rehashed(snap))

    @pytest.mark.parametrize(
        "row",
        [
            ["submit", 6, 0, 3, 6, 1],  # short
            ["submit", 6, 0, 3, 6, 1, 2, 0],  # long
            ["submit", 6, 0, 3.0, 6, 1, 2],
            ["submit", 6, 0, True, 6, 1, 2],
            ["submit", 6, 0, "3", 6, 1, 2],
            ["advance", 6.0, 9],  # the clock is checked like the values
            ["drain"],
            {"kind": "submit", "time": 6, "org": 0, "size": 3},
            [],
        ],
    )
    def test_malformed_row_refused_before_anything_is_built(
        self, row, monkeypatch
    ):
        """A payload whose hash is right but whose journal is not in the
        row grammar is refused by name, before ``restore`` constructs the
        service it would replay into."""
        good = self._service().snapshot()
        bad = copy.deepcopy(good)
        bad["journal"].append(row)
        built = []
        init = ClusterService.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ClusterService, "__init__", spy)
        with pytest.raises(ValueError, match="journal row 3: "):
            ClusterService.restore(_rehashed(bad))
        assert built == []
        ClusterService.restore(good)
        assert len(built) == 1  # the spy does see a restore that proceeds

    def test_version_1_payload_refused(self):
        """No version-1 reader: a dict-per-op payload, correctly hashed, is
        turned away by the version gate."""
        with pytest.raises(
            ValueError,
            match=r"unsupported snapshot version 1 "
            r"\(this build reads version 2\)",
        ):
            ClusterService.restore(as_version_1(self._service().snapshot()))

    def test_checkpoint_is_at_most_40_bytes_per_op(self, tmp_path):
        """Clock-free size guard on the file format (29 bytes per op
        measured; the version-1 dict-per-op file took 100)."""
        from repro.service import save_snapshot

        svc = ClusterService([3, 2, 2, 1, 1], "fifo")
        for i in range(1000):
            svc.submit(i % 5, 1 + i % 7, release=i // 2)
            if i % 10 == 9:
                svc.advance(i // 2)
        path = save_snapshot(svc.snapshot(), tmp_path / "svc.json")
        assert len(svc.journal) == 1100
        assert path.stat().st_size <= 40 * len(svc.journal)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("version", "unsupported snapshot version 1"),
            ("hash", "content hash mismatch"),
            ("row", "journal row 0: "),
            ("not_json", "Expecting"),
            ("missing", "No such file"),
        ],
    )
    def test_cli_restore_refusal_is_a_message_and_exit_2(
        self, damage, message, tmp_path, capsys
    ):
        from repro import cli
        from repro.service import save_snapshot

        snap = self._service().snapshot()
        if damage == "version":
            snap = as_version_1(snap)
        elif damage == "hash":
            snap["clock"] += 1
        elif damage == "row":
            snap["journal"][0].pop()
            snap = _rehashed(snap)
        path = tmp_path / "svc.json"
        if damage == "not_json":
            path.write_text("{torn")
        elif damage != "missing":
            save_snapshot(snap, path)
        assert cli.main(["serve", "--restore", str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert str(path) in captured.err
        assert captured.out == ""


def _rehashed(snap: dict) -> dict:
    """``snap`` with its hash brought up to date after an edit, so the
    edit reaches the checks behind the hash."""
    snap["content_hash"] = content_hash(snap)
    return snap


# ----------------------------------------------------------------------
# generated op streams: checkpoint at any cut == never checkpointing
# ----------------------------------------------------------------------
#: Abstract ops; :func:`_drive` resolves them against the live service
#: (member picks, releases relative to the clock), so every drawn stream
#: is valid and two services in equal states get equal concrete ops.
_SUBMIT = st.tuples(
    # release offset < 0 is clamped up to the clock; 0 after an advance
    # to the clock is a same-time submission after that round ran; equal
    # offsets in a row are ties
    st.just("submit"),
    st.integers(0, 7),
    st.integers(1, 4),
    st.sampled_from([None, -2, 0, 0, 1, 3]),
)
_ADVANCE = st.tuples(st.just("advance"), st.sampled_from([0, 0, 1, 2, 5]))
_ABSTRACT_OPS = st.one_of(
    # traffic twice: membership ops should punctuate a stream, not be it
    _SUBMIT,
    _SUBMIT,
    _ADVANCE,
    _ADVANCE,
    st.tuples(st.just("drain")),
    st.tuples(st.just("join_org"), st.integers(0, 2)),
    st.tuples(st.just("leave_org"), st.integers(0, 7)),
    st.tuples(st.just("add_machines"), st.integers(0, 7), st.integers(1, 2)),
    st.tuples(st.just("remove_machines"), st.integers(0, 7), st.integers(1, 2)),
)


def _drive(svc: ClusterService, ops) -> ClusterService:
    for kind, *args in ops:
        members = svc.census.members
        org = members[args[0] % len(members)] if args else None
        if kind == "submit":
            _, size, offset = args
            floor = svc.census.last_release[org]  # FIFO: never before it
            if offset is None and floor <= svc.clock:
                svc.submit(org, size)
            else:
                svc.submit(org, size, max(svc.clock + (offset or 0), floor))
        elif kind == "advance":
            svc.advance(svc.clock + args[0])
        elif kind == "drain":
            svc.drain()
        elif kind == "join_org":
            if svc.census.n_orgs < 5:  # keeps REF at <= 31 coalitions
                svc.join_org(args[0])
        elif kind == "leave_org":
            if len(members) > 1:
                svc.leave_org(org)
        elif kind == "add_machines":
            svc.add_machines(org, args[1])
        else:
            count = min(args[1], len(svc.census.machines[org]))
            if count:
                svc.remove_machines(org, count)
    return svc


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(["fifo", "directcontr", "ref"]),
    machines=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    ops=st.lists(_ABSTRACT_OPS, max_size=40),
    data=st.data(),
)
def test_checkpoint_at_any_cut_is_invisible(policy, machines, ops, data):
    """The seed of ROADMAP's stateful ``ClusterService`` machine: through
    the real file format, a restore at any point of any op stream is the
    service it was taken from, and stays so under further traffic."""
    from repro.service import load_snapshot, save_snapshot

    cut = data.draw(st.integers(0, len(ops)), label="cut")
    live = _drive(ClusterService(machines, policy, seed=1), ops[:cut])
    snap = live.snapshot()
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_snapshot(save_snapshot(snap, Path(tmp) / "svc.json"))
    assert loaded == snap
    restored = ClusterService.restore(loaded)
    assert restored.journal == live.journal
    assert restored.clock == live.clock
    assert restored.n_events == live.n_events
    assert restored.schedule() == live.schedule()
    assert restored.snapshot() == snap
    _drive(live, ops[cut:]).drain()
    _drive(restored, ops[cut:]).drain()
    assert restored.schedule() == live.schedule()
    assert restored.journal == live.journal


# ----------------------------------------------------------------------
# dynamic membership semantics (DESIGN.md §6)
# ----------------------------------------------------------------------
class TestDynamicMembership:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_churn_journey_snapshots_cleanly(self, policy):
        svc = ClusterService([2, 1], policy, seed=0)
        svc.submit(0, 3)
        svc.submit(1, 2)
        svc.advance(0)
        org = svc.join_org(machines=2)
        assert org == 2
        svc.submit(org, 4)
        svc.advance(5)
        svc.add_machines(0, 1)
        svc.remove_machines(org, 1)
        svc.advance(10)
        svc.leave_org(1)
        svc.submit(0, 2)
        svc.drain()
        restored = ClusterService.restore(svc.snapshot())
        assert restored.schedule() == svc.schedule()
        assert restored.snapshot()["content_hash"] == (
            svc.snapshot()["content_hash"]
        )

    def test_leaver_running_job_completes_waiting_withdrawn(self):
        svc = ClusterService([1, 1], "fifo")
        svc.submit(0, 5)     # runs on org 0's machine
        svc.submit(1, 5)     # runs on org 1's machine
        svc.submit(1, 3)     # waits behind it
        svc.advance(0)
        engine = svc.policy.grand_engine()
        assert engine.running_count(1) == 1
        assert engine.waiting_count(1) == 1
        svc.leave_org(1)
        # non-preemption: the running job completes and scores utility...
        svc.drain()
        sched = svc.schedule()
        org1_jobs = [e for e in sched if e.job.org == 1]
        assert [e.job.size for e in org1_jobs] == [5]  # waiter withdrawn
        assert svc.psis()[1] > 0
        # ...and the machine drained instead of rejoining the pool
        assert engine.n_machines == 1

    def test_joiner_machines_start_work_immediately(self):
        svc = ClusterService([1], "fifo")
        svc.submit(0, 4)
        svc.submit(0, 4)   # waits: only one machine
        svc.advance(0)
        assert svc.policy.grand_engine().waiting_count(0) == 1
        svc.join_org(machines=1)
        # greedy invariant: the new machine picks up the waiting job now
        assert svc.policy.grand_engine().waiting_count(0) == 0
        entries = sorted(svc.schedule(), key=lambda e: e.job.index)
        assert [e.start for e in entries] == [0, 0]

    def test_busy_machine_drains_on_removal(self):
        svc = ClusterService([2], "fifo")
        svc.submit(0, 6)
        svc.advance(0)
        engine = svc.policy.grand_engine()
        busy = [m for m in (0, 1) if engine.running_on(m) is not None]
        assert len(busy) == 1
        # highest-id machine is chosen; make sure it is the busy one
        if busy[0] == 1:
            svc.remove_machines(0, 1)
            assert engine.n_machines == 2  # still draining
            svc.drain()
            assert engine.n_machines == 1  # retired at completion
        else:
            svc.remove_machines(0, 1)
            assert engine.n_machines == 1  # free machine retires instantly

    def test_fairshare_targets_follow_completed_drain(self):
        """Target shares must re-derive once a busy machine's drain
        completes, not stay pinned to the pre-removal pool."""
        svc = ClusterService([2, 2], "fairshare")
        svc.submit(0, 6)
        svc.submit(0, 6)
        svc.submit(1, 6)
        svc.submit(1, 6)
        svc.advance(0)  # all four machines busy
        svc.remove_machines(0, 1)  # busy: drains
        adapter = svc.policy
        assert adapter.engine.n_machines == 4  # still draining
        assert adapter.scheduler._shares == (0.5, 0.5)
        svc.advance(6)  # the drain completes at the jobs' completion
        assert adapter.engine.n_machines == 3
        assert adapter.scheduler._shares == (1 / 3, 2 / 3)

    def test_round_robin_cursor_survives_leave(self):
        """The cyclic cursor tracks org ids: a departure must not re-aim
        it at a different organization."""
        svc = ClusterService([1, 1, 1], "roundrobin")
        # all three orgs have work queued behind one running job each
        for u in (0, 1, 2):
            svc.submit(u, 4)
            svc.submit(u, 1)
        svc.advance(0)
        sched = svc.policy.scheduler
        assert sched._last_served == 2
        svc.leave_org(0)
        svc.drain()
        # after serving org 2 last, the next (and only) waiters 1 and 2
        # are served in cyclic order 1 -> 2 at t=4
        tail = [
            e.job.org
            for e in sorted(svc.schedule(), key=lambda e: (e.start, e.machine))
            if e.start > 0
        ]
        assert tail == [1, 2]

    def test_ref_size_cap_rolls_back(self):
        from repro.service.service import REF_MAX_ORGS

        svc = ClusterService([1] * REF_MAX_ORGS, "ref")
        with pytest.raises(ValueError, match="cap"):
            svc.join_org(machines=1)
        # the refusal left no trace: same membership, clean journal replay
        assert len(svc.census.members) == REF_MAX_ORGS
        restored = ClusterService.restore(svc.snapshot())
        assert restored.census.members == svc.census.members

    @pytest.mark.parametrize("policy", ["fifo", "ref"])
    def test_refused_join_rolls_the_admission_back(self, policy, monkeypatch):
        """A policy that refuses a joiner after the census admitted it
        leaves no trace: same census, same journal, same snapshot, and
        the next real join is issued the id the refused one held."""
        svc = ClusterService([2, 1], policy, seed=0)
        svc.submit(0, 3)
        svc.advance(2)
        census, journal, snap = (
            copy.deepcopy(svc.census), list(svc.journal), svc.snapshot()
        )

        def refuse(org):
            raise RuntimeError(f"no room for org {org}")

        with monkeypatch.context() as patched:
            patched.setattr(svc._policy, "join", refuse)
            with pytest.raises(RuntimeError, match="no room for org 2"):
                svc.join_org(machines=2)
        assert svc.census == census
        assert svc.journal == journal
        assert svc.snapshot() == snap
        restored = ClusterService.restore(snap)
        assert restored.census == census
        assert svc.join_org(machines=2) == restored.join_org(machines=2) == 2
        assert svc.census.machines[2] == restored.census.machines[2] == [3, 4]

    def test_cannot_remove_last_member(self):
        svc = ClusterService([1], "fifo")
        with pytest.raises(ValueError, match="last member"):
            svc.leave_org(0)

    def test_org_ids_never_reused(self):
        svc = ClusterService([1, 1], "fifo")
        svc.leave_org(1)
        assert svc.join_org(machines=1) == 2


# ----------------------------------------------------------------------
# ingest validation + engine mutators
# ----------------------------------------------------------------------
class TestIngestValidation:
    def test_release_clamped_to_clock(self):
        svc = ClusterService([1], "fifo")
        svc.advance(10)
        job = svc.submit(0, 1, release=3)
        assert job.release == 10

    def test_fifo_release_regression_rejected(self):
        svc = ClusterService([1], "fifo")
        svc.submit(0, 1, release=100)
        with pytest.raises(ValueError, match="FIFO"):
            svc.submit(0, 1, release=50)

    def test_explicit_index_must_match(self):
        svc = ClusterService([1], "fifo")
        svc.submit(0, 1)
        with pytest.raises(ValueError, match="index"):
            svc.submit(0, 1, index=5)

    def test_same_time_submission_after_round_still_starts(self):
        """A job arriving at an already-processed time must not idle a
        free machine (the forced-round path)."""
        svc = ClusterService([2], "fifo")
        svc.submit(0, 3)
        svc.advance(0)       # round at t=0 processed
        svc.submit(0, 2)     # arrives "now", one machine is free
        assert [e.start for e in svc.schedule()] == [0, 0]

    def test_engine_submit_into_past_rejected(self):
        wl = make_workload([1], [(0, 0, 2)])
        eng = ClusterEngine(wl)
        eng.advance_to(5)
        with pytest.raises(ValueError, match="past"):
            eng.submit(Job(3, 0, 1, 1))

    def test_engine_retire_unknown_machine(self):
        wl = make_workload([1], [])
        eng = ClusterEngine(wl)
        with pytest.raises(ValueError, match="unknown machine"):
            eng.retire_machine(7)
        eng.retire_machine(0)
        with pytest.raises(ValueError, match="already retired"):
            eng.retire_machine(0)

    def test_engine_member_bookkeeping(self):
        wl = make_workload([1, 1], [(0, 0, 1)])
        eng = ClusterEngine(wl)
        eng.add_member(2)
        assert eng.members == (0, 1, 2)
        assert eng.n_orgs == 3
        eng.add_machine(5, 2)
        assert eng.machine_counts() == [1, 1, 1]
        eng.remove_member(1)
        assert eng.members == (0, 2)
        with pytest.raises(ValueError, match="not a member"):
            eng.submit(Job(0, 1, 0, 1))


# ----------------------------------------------------------------------
# daemon loop
# ----------------------------------------------------------------------
class TestDaemon:
    def test_serve_loop_round_trip(self, tmp_path):
        svc = ClusterService([2, 1], "directcontr", seed=0)
        snap_path = tmp_path / "final.json"
        cmds = [
            {"op": "submit", "org": 0, "size": 3},
            {"op": "submit", "org": 1, "size": 2},
            {"op": "advance", "t": 4},
            {"op": "join", "machines": 1},
            {"op": "submit", "org": 2, "size": 2},
            {"op": "status"},
            {"op": "nonsense"},
            {"op": "drain"},
            {"op": "stop"},
        ]
        out = io.StringIO()
        serve_loop(
            svc,
            io.StringIO("\n".join(json.dumps(c) for c in cmds)),
            out,
            snapshot_to=str(snap_path),
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [
            True, True, True, True, True, True, False, True, True,
        ]
        status = responses[5]
        assert status["members"] == [0, 1, 2]
        # the exit snapshot restores to the same state
        from repro.service import load_snapshot

        restored = ClusterService.restore(load_snapshot(snap_path))
        assert restored.schedule() == svc.schedule()

    def test_status_names_the_policy_backend(self):
        """A fleet-backed policy reports whether it still runs on the
        batched kernel; a membership change drops REF to per-coalition
        engines and the status says so (ISSUE 12 observability)."""
        svc = ClusterService([1] * 6, "ref", seed=0)  # 63 masks: kernel
        for org in range(6):
            svc.submit(org, 2)
        svc.advance(3)
        status = svc.status()
        backend = status["policy_backend"]
        assert backend["backend"] == "kernel"
        assert backend["materializations"] == 0
        assert backend["start_log_entries"] >= status["jobs_started"] > 0
        # one feed per job: the two keys perf/ reads, nothing buffered
        assert status["ingest"] == {"flushes": 6, "jobs_flushed": 6}
        # ISSUE 22: what the fused REF body did with its decision events
        seen = backend["ref_events"]
        assert set(seen) == {"forced", "contested", "retro", "unsafe", "guard"}
        assert seen["forced"] + seen["contested"] > 0
        json.dumps(status)
        svc.leave_org(5)
        backend = svc.status()["policy_backend"]
        assert (backend["backend"], backend["materializations"]) == (
            "engines", 1
        )
        assert svc._policy.fleet.materialize_reason == "remove_mask"
        assert backend["ref_events"] == seen  # counts outlive the epoch
        rand = ClusterService([1, 1, 1], "rand", seed=0)
        assert set(rand.status()["policy_backend"]) == set(backend) - {
            "ref_events"
        }
        assert ClusterService([1], "fifo").status()["policy_backend"] is None

    def test_malformed_json_is_in_band_error(self):
        svc = ClusterService([1], "fifo")
        out = io.StringIO()
        serve_loop(svc, io.StringIO('{not json}\n5\n"x"\n[1]\n{"op":"status"}\n'), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        # every bad line answered in-band; the daemon kept serving
        assert [r["ok"] for r in responses] == [False] * 4 + [True]

    def test_cli_batch_flags(self, capsys):
        """PR 23 deleted the ingest buffer and its four flags: argparse
        turns them away (exit 2) instead of accepting a no-op."""
        from repro import cli

        for argv, flag in (
            (["serve", "--batch-max", "1"], "--batch-max"),
            (["gateway", "--batch-linger-ms", "5"], "--batch-linger-ms"),
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_batch_counterpart_params_flow_through_registry(self):
        scheduler = build_scheduler("rand:n_orderings=30", seed=3, horizon=100)
        assert scheduler.n_orderings == 30

    def test_deprecated_dispatch_shims_removed(self):
        """The PR 4 ``POLICIES``/``batch_counterpart`` shims are gone
        (deprecation cycle complete); the registry is the only table."""
        import repro.service as service_pkg
        import repro.service.service as service_mod

        for name in ("POLICIES", "batch_counterpart"):
            with pytest.raises(AttributeError):
                getattr(service_mod, name)
        with pytest.raises(AttributeError):
            service_pkg.POLICIES
        assert "POLICIES" not in service_mod.__all__
        assert "POLICIES" not in service_pkg.__all__
        # the blessed registry path still resolves every online policy
        assert sorted(policy_names("step")) == ALL_POLICIES


# ----------------------------------------------------------------------
# entry-point parity (satellite: python -m repro == repro)
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_importing_dunder_main_is_inert(self):
        # regression: `sys.exit(main())` used to run at import time
        import importlib

        import repro.__main__ as entry

        importlib.reload(entry)  # would raise SystemExit before the fix

    def test_python_dash_m_matches_console_entry(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        want = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios"],
            capture_output=True,
            text=True,
            check=True,
            cwd=str(Path(__file__).parent.parent),
        )
        assert proc.stdout == want

    def test_replay_subcommand_exit_status(self, capsys):
        from repro.cli import main

        code = main([
            "replay", "swf", "--swf", SWF_FIXTURE, "--duration", "300",
            "--orgs", "3", "--repeats", "1", "--policy", "fifo",
            "--snapshot-every", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK (bit-identical)" in out
