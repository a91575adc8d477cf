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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import fifo_select
from repro.algorithms.ref import RefRun
from repro.core.engine import ClusterEngine
from repro.core.job import Job
from repro.service import ClusterService, ReplayDriver, replay_scenario
from repro.gateway.worker import serve_rows
from repro.policies import build_scheduler, policy_names
from repro.service.snapshot import (
    SNAPSHOT_VERSION,
    check_snapshot,
    content_hash,
)
from repro.service.state import OP_FIELDS

from .conftest import (
    as_version_1,
    as_version_2,
    make_workload,
    random_workload,
)
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
        built = _spy_on_init(monkeypatch)
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
            r"\(this build reads version 3\)",
        ):
            ClusterService.restore(as_version_1(self._service().snapshot()))

    @pytest.mark.parametrize("policy", ["fifo", "ref"])
    def test_version_2_payload_refused(self, policy, monkeypatch):
        """No version-2 reader either: the journal alone, correctly hashed,
        is refused by name before a service is built, whether or not the
        policy would have written an image."""
        snap = as_version_2(self._service(policy).snapshot())
        built = _spy_on_init(monkeypatch)
        with pytest.raises(
            ValueError,
            match=r"unsupported snapshot version 2 "
            r"\(this build reads version 3\)",
        ):
            ClusterService.restore(snap)
        assert built == []

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


def _spy_on_init(monkeypatch) -> list:
    """Record every ``ClusterService`` construction from here on: a
    refusal that comes after one has built what it refused."""
    built = []
    init = ClusterService.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClusterService, "__init__", spy)
    return built


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
# checkpoint images: loading the engine == re-deciding the journal
# ----------------------------------------------------------------------
#: Every policy whose snapshot carries an image (one physical engine).
SINGLE_ENGINE = [
    "currfairshare",
    "directcontr",
    "directcontr:mode=faithful",
    "fairshare",
    "fifo",
    "roundrobin",
    "utfairshare",
]


def _journal_only(snap: dict) -> dict:
    """``snap`` without its image, re-hashed: restoring it re-decides the
    journal, which is the oracle an image restore must equal."""
    return _rehashed({**snap, "image": None})


def _engine_view(eng: ClusterEngine) -> tuple:
    """What an engine shows its policies and the service, at its clock."""
    return (
        eng.t,
        eng.members,
        eng.n_machines,
        eng.machine_owner,
        eng.ledger(),
        eng.psis(),
        eng.psis_by_machine_owner(),
        eng.free_machines(),
        eng.machine_counts(),
        eng.running_counts(),
        [eng.waiting_count(u) for u in eng.members],
        eng.next_event_time(),
        eng.start_log,
        eng.completed_log,
    )


def _scheduler_view(svc: ClusterService) -> dict:
    """Everything the policy's scheduler holds, its RNG as stream position."""
    view = dict(vars(svc.policy.scheduler))
    if "_rng" in view:
        view["_rng"] = view["_rng"].bit_generator.state
    return view


def _assert_same_service(a: ClusterService, b: ClusterService) -> None:
    assert a.schedule() == b.schedule()
    assert a.census == b.census
    assert (a.clock, a.n_events, a.n_jobs) == (b.clock, b.n_events, b.n_jobs)
    assert a.journal == b.journal
    assert a.snapshot() == b.snapshot()
    assert _engine_view(a.policy.engine) == _engine_view(b.policy.engine)
    assert a.policy.scheduler.state() == b.policy.scheduler.state()
    assert _scheduler_view(a) == _scheduler_view(b)
    assert (a.policy._draining, a.policy._pool_target) == (
        b.policy._draining,
        b.policy._pool_target,
    )


@settings(max_examples=200, deadline=None)
@given(
    policy=st.sampled_from(SINGLE_ENGINE),
    machines=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    ops=st.lists(_ABSTRACT_OPS, max_size=40),
    data=st.data(),
)
def test_image_restore_is_journal_restore(policy, machines, ops, data):
    """At any cut of any stream of joins, leaves, machine adds and drains,
    loading a single-engine policy's image gives the service re-deciding
    its journal gives, and the two stay equal under further traffic."""
    cut = data.draw(st.integers(0, len(ops)), label="cut")
    live = _drive(ClusterService(machines, policy, seed=1), ops[:cut])
    snap = live.snapshot()
    assert snap["image"] is not None
    imaged = ClusterService.restore(snap)
    replayed = ClusterService.restore(_journal_only(snap))
    _assert_same_service(imaged, replayed)
    assert imaged.snapshot() == snap
    _drive(imaged, ops[cut:]).drain()
    _drive(replayed, ops[cut:]).drain()
    _assert_same_service(imaged, replayed)


class TestImage:
    """Checkpoint images (DESIGN.md §6.2): what a single-engine policy
    writes, what restore refuses, and the fallbacks."""

    def _service(self, policy="directcontr") -> ClusterService:
        """Mid-stream with history in every image row: completed and
        running jobs, waiting and unreleased ones, a drained machine, a
        draining one, a leaver."""
        svc = ClusterService([2, 1], policy, seed=3)
        for org, size in [(0, 4), (1, 2), (0, 1), (1, 3), (0, 2), (1, 1)]:
            svc.submit(org, size)
        svc.advance(1)
        joiner = svc.join_org(machines=1)
        svc.submit(joiner, 5, release=2)
        svc.advance(3)
        svc.remove_machines(0, 1)  # free: retires at once
        svc.submit(0, 3, release=3)
        svc.submit(1, 2, release=9)
        svc.leave_org(1)
        svc.advance(4)
        svc.remove_machines(joiner, 1)  # busy: drains
        svc.submit(0, 1)  # no free machine: waits
        return svc

    def test_image_names_every_part_of_the_state(self):
        svc = self._service()
        image = svc.snapshot()["image"]
        assert len(image["starts"]) == 3 * len(svc.schedule()) >= 18
        assert image["clock"] == [svc.policy.engine.t]
        assert image["retiring"] and image["retired"]
        assert image["running"] and any(image["waiting"])
        assert image["last_decision"] == [4]
        assert set(image["scheduler"]) == {
            "rng", "clock", "fin_ut", "fin_con", "phi", "psi"
        }

    @pytest.mark.parametrize("policy", SINGLE_ENGINE)
    def test_draining_cut_restores_and_continues(self, policy):
        live = self._service(policy)
        snap = live.snapshot()
        assert snap["image"]["retiring"]
        imaged = ClusterService.restore(snap)
        replayed = ClusterService.restore(_journal_only(snap))
        _assert_same_service(imaged, replayed)
        for svc in (live, imaged):
            svc.add_machines(0, 1)
            svc.submit(0, 2)
            svc.drain()
        _assert_same_service(imaged, live)

    @pytest.mark.parametrize(
        "policy", ["ref", "rand", "ref_stratified", "ref_adaptive"]
    )
    def test_fleet_policies_write_no_image(self, policy):
        svc = ClusterService([1, 1], policy, seed=0)
        svc.submit(0, 2)
        svc.submit(1, 1)
        svc.drain()
        snap = svc.snapshot()
        assert snap["image"] is None
        assert ClusterService.restore(snap).snapshot() == snap

    def test_fleet_policy_refuses_a_grafted_image(self):
        snap = ClusterService([1, 1], "ref").snapshot()
        snap["image"] = ClusterService([1, 1], "fifo").snapshot()["image"]
        with pytest.raises(ValueError, match="restores from its journal"):
            ClusterService.restore(_rehashed(snap))

    def test_restore_neither_decides_nor_advances(self, monkeypatch):
        snap = self._service().snapshot()

        def refuse(*args):
            raise AssertionError("an image restore re-ran the policy")

        monkeypatch.setattr(ClusterEngine, "advance_to", refuse)
        monkeypatch.setattr(
            type(ClusterService([1], "directcontr").policy.scheduler),
            "schedule_event",
            refuse,
        )
        assert ClusterService.restore(snap).snapshot() == snap

    def test_duplicate_job_ids_restore_through_the_journal(self, monkeypatch):
        """Start rows name jobs by id; a journal that reused an explicit id
        cannot be resolved, so its image is set aside for a replay."""
        svc = ClusterService([1, 1], "fifo")
        svc.submit(0, 2, job_id=7)
        svc.submit(1, 2, job_id=7)
        svc.advance(1)
        snap = svc.snapshot()
        loads = []
        monkeypatch.setattr(
            ClusterEngine, "from_image", lambda *a, **k: loads.append(a)
        )
        restored = ClusterService.restore(snap)
        assert loads == []
        assert restored.snapshot() == snap

    def _refused(self, snap, match, monkeypatch):
        built = _spy_on_init(monkeypatch)
        with pytest.raises(ValueError, match=match):
            ClusterService.restore(_rehashed(snap))
        assert built == []

    def _starts(self, snap) -> "list[tuple[int, tuple]]":
        """``(n, submit row)`` per start, in start order: start ``n`` is
        ``starts[3 * n: 3 * n + 3]``."""
        submits = {r[6]: r for r in snap["journal"] if r[0] == "submit"}
        starts = snap["image"]["starts"]
        return [(n, submits[starts[3 * n + 2]])
                for n in range(len(starts) // 3)]

    def test_refuses_an_unknown_job_id(self, monkeypatch):
        snap = self._service().snapshot()
        snap["image"]["starts"][3 * 2 + 2] = 999
        self._refused(
            snap, r"image start 2 .*999 was never submitted", monkeypatch
        )

    def test_refuses_a_start_before_its_release(self, monkeypatch):
        snap = self._service().snapshot()
        n, job = next((n, job) for n, job in self._starts(snap) if job[4] > 0)
        snap["image"]["starts"][3 * n] = job[4] - 1
        self._refused(
            snap, rf"image start {n} .*before its release", monkeypatch
        )

    def test_refuses_starts_out_of_index_order(self, monkeypatch):
        snap = self._service().snapshot()
        starts = snap["image"]["starts"]
        a, b = [n for n, job in self._starts(snap) if job[2] == 0][:2]
        starts[3 * a + 2], starts[3 * b + 2] = (
            starts[3 * b + 2], starts[3 * a + 2]
        )
        self._refused(
            snap, rf"image start {a} .*out of index order", monkeypatch
        )

    def test_refuses_two_running_jobs_on_one_machine(self, monkeypatch):
        snap = self._service().snapshot()
        starts = snap["image"]["starts"]
        t = snap["image"]["clock"][0]
        running = [n for n, job in self._starts(snap)
                   if starts[3 * n] + job[3] > t]
        assert len(running) >= 2
        a, b = running[:2]
        starts[3 * b + 1] = starts[3 * a + 1]
        self._refused(snap, rf"image start {b} .*overlaps", monkeypatch)

    def test_refuses_a_running_set_the_clock_disagrees_with(
        self, monkeypatch
    ):
        snap = self._service().snapshot()
        snap["image"]["running"].pop()
        self._refused(snap, r"image running row .* at clock", monkeypatch)

    @pytest.mark.parametrize(
        "key, row",
        [
            ("starts", [0.0, 0, 0]),
            ("starts", [[0, 0, 0]]),
            ("starts", [0, 0]),
            ("waiting", [0, "1", 0]),
            ("clock", [4, 4]),
            ("drain", [False, 2]),
            ("last_decision", [4.0]),
        ],
    )
    def test_refuses_a_row_that_is_not_ints(self, key, row, monkeypatch):
        snap = self._service().snapshot()
        snap["image"][key] = row
        self._refused(snap, rf"image {key} row", monkeypatch)

    def test_refuses_a_scheduler_row_that_is_not_ints(self, monkeypatch):
        snap = self._service().snapshot()
        snap["image"]["scheduler"]["phi"] = [0.5, 0, 0]
        self._refused(snap, r"image scheduler phi row", monkeypatch)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda snap: snap.update(clock=snap["clock"] + 1),
             "the journal leaves the clock at 4, the payload says 5"),
            (lambda snap: snap["image"].update(clock=[snap["clock"] + 1]),
             "image clock row .* ahead of the service clock"),
            (lambda snap: snap["image"]["waiting"].append(0),
             "image waiting row .* issued 3 organization ids"),
            (lambda snap: snap["image"]["waiting"].__setitem__(0, 9),
             "image waiting row .* org 0 has 1 unstarted"),
            (lambda snap: snap["image"]["retired"].pop(),
             "image retiring/retired rows"),
            (lambda snap: snap["image"]["retiring"].append(0),
             "image retiring/retired rows"),
        ],
    )
    def test_refuses_an_image_the_journal_disagrees_with(
        self, edit, match, monkeypatch
    ):
        snap = self._service().snapshot()
        edit(snap)
        self._refused(snap, match, monkeypatch)

    def test_refuses_a_journal_the_census_cannot_fold(self, monkeypatch):
        snap = self._service().snapshot()
        row = next(r for r in snap["journal"] if r[0] == "submit" and r[5])
        row[5] += 1  # skips a FIFO index
        self._refused(snap, r"journal row \d+ .*FIFO index", monkeypatch)

    @pytest.mark.parametrize(
        "policy, state, match",
        [
            ("fifo", {"cursor": [0]}, "GreedyFIFO keeps none"),
            ("roundrobin", {"cursor": [0, 1]}, "one cursor row"),
            ("directcontr", {"rng": [1, 2, 3, 4]}, "rng\\[4\\], clock\\[2\\]"),
        ],
    )
    def test_load_state_refuses_rows_it_does_not_keep(
        self, policy, state, match
    ):
        scheduler = ClusterService([1], policy).policy.scheduler
        with pytest.raises(ValueError, match=match):
            scheduler.load_state(state)


def test_save_snapshot_fsyncs_the_directory_after_the_rename(
    tmp_path, monkeypatch
):
    """The rename is durable: after ``os.replace`` the parent directory is
    fsynced, so a WAL marker written next never names a lost checkpoint."""
    import os
    import stat

    from repro.service import save_snapshot

    events = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(("fsync", kind))
        fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    save_snapshot(ClusterService([1], "fifo").snapshot(), tmp_path / "a.json")
    assert events == [
        ("fsync", "file"), ("replace", "a.json"), ("fsync", "dir")
    ]


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

    @pytest.mark.parametrize("policy", ["ref", "rand", "ref_adaptive", "fifo"])
    def test_withdrawn_release_is_no_decision_time(self, policy):
        """A leaver's unreleased job is withdrawn from every simulation, so
        its release is no decision time: the run, events counted, equals
        one where the job was never submitted."""

        def run(with_leaver_job):
            svc = ClusterService([1, 1, 1], policy, seed=0)
            svc.submit(0, 3, release=0)
            svc.submit(1, 2, release=0)
            if with_leaver_job:
                svc.submit(2, 4, release=50)
            svc.advance(10)
            svc.leave_org(2)
            svc.advance(100)
            svc.drain()
            return svc.status()["events_processed"], svc._digest()

        assert run(True) == run(False)

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


class TestRandOracleSeesThePoolAtTheClock:
    """The sampled policies drive their oracle engines only at contested
    decision events, so they lag the clock.  A machine added or removed
    at clock ``c`` must exist in every oracle coalition's greedy FIFO
    schedule exactly from ``c`` on, or until the round at ``c`` has run.
    RAND has one oracle fleet; ``ref_adaptive`` at k=3 values the whole
    lattice (its exact rung), at k=5 with ``n_max=16`` its waves."""

    @staticmethod
    def _churn(policy: str, seed: int, k: int = 3):
        rng = np.random.default_rng(seed)
        svc = ClusterService([1] * k, policy, seed=seed)
        history = []  # ("submit", job) / ("pool", clock, org, ids, add)
        for tick in range(1, 120):
            for _ in range(int(rng.integers(3))):
                org, size = int(rng.integers(k)), int(rng.integers(1, 7))
                history.append(
                    ("submit", svc.submit(org, size, release=tick))
                )
            svc.advance(tick)
            if tick % 17 == 0:
                org = int(rng.integers(k))
                add = len(svc.census.machines[org]) < 2 or rng.random() < 0.5
                ids = (
                    svc.add_machines(org, 1)
                    if add
                    else svc.remove_machines(org, 1)
                )
                history.append(("pool", svc.clock, org, ids, add))
        svc.drain()
        return svc, history

    @staticmethod
    def _eager(svc, members, history) -> ClusterEngine:
        """The coalition's greedy FIFO engine, brought to the clock at
        each pool change and run to the end."""
        ref = ClusterEngine(svc.genesis_workload(), members)
        for op in history:
            if op[0] == "submit":
                if op[1].org in members:
                    ref.submit(op[1])
                continue
            _, clock, org, ids, add = op
            if org not in members:
                continue
            ref.drive(fifo_select, until=clock)
            ref.advance_to(max(ref.t, clock))
            for mid in ids:
                if add:
                    ref.add_machine(mid, org)
                else:
                    ref.retire_machine(mid)
            if add:
                ref.fill(fifo_select)
        ref.drive(fifo_select)
        return ref

    @pytest.mark.parametrize(
        "policy, k",
        [
            pytest.param(policy, k, id=policy)
            for policy, k in [
                ("rand", 3),
                ("ref_stratified", 3),
                ("ref_adaptive", 3),
                ("ref_adaptive:n_max=16,n_min=4", 5),
            ]
        ],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_machines_live_from_add_to_removal(self, policy, k, seed):
        svc, history = self._churn(policy, seed, k)
        added = {m: op[1] for op in history if op[0] == "pool" and op[4]
                 for m in op[3]}
        removed = {m: op[1] for op in history
                   if op[0] == "pool" and not op[4] for m in op[3]}
        for oracle in svc.policy.run.oracles:
            for mask in oracle.masks:
                eng = oracle.engine(mask)
                eng.drive(fifo_select)
                for e in eng.start_log:
                    assert added.get(e.machine, 0) <= e.start, (mask, e)
                    # the round at the removal clock ran before the removal
                    assert e.start <= removed.get(e.machine, e.start), (
                        mask, e
                    )
                ref = self._eager(svc, eng.members, history)
                assert eng.start_log == ref.start_log, mask


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
def _serve(monkeypatch, capsys, argv, rows):
    """``repro serve ARGV`` in-process with ``rows`` on stdin: its exit
    code and its replies."""
    from repro import cli

    stdin = "".join(json.dumps(row) + "\n" for row in rows)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(["serve", *argv])
    return code, [json.loads(l) for l in capsys.readouterr().out.splitlines()]


class TestDaemon:
    def test_serve_loop_round_trip(
        self, tmp_path, monkeypatch, capsys, keep_signal_handlers
    ):
        from repro.service import load_snapshot
        from repro.service.snapshot import schedule_digest

        rows = [
            [1, 0, "submit", 0, 3, None],
            [2, 0, "submit", 1, 2, None],
            [3, 0, "advance", 4],
            [4, 0, "join_org", 1],
            [5, 0, "submit", 2, 2, None],
            [6, 0, "status"],
            [7, 0, "nonsense"],
            [8, 0, "drain"],
        ]
        svc = ClusterService([2, 1], "directcontr", seed=0)
        svc.submit(0, 3)
        svc.submit(1, 2)
        svc.advance(4)
        svc.submit(svc.join_org(1), 2)
        svc.drain()
        # the exit snapshot is written on EOF and on a shutdown row alike
        for ending in ([], [[9, "shutdown"]]):
            snap_path = tmp_path / f"final-{len(ending)}.json"
            code, responses = _serve(
                monkeypatch, capsys,
                ["--orgs", "2,1", "--policy", "directcontr",
                 "--snapshot-to", str(snap_path)],
                rows + ending,
            )
            assert code == 0
            assert [
                isinstance(r, list) or r["ok"] for r in responses
            ] == [True] * 6 + [False] + [True] * (1 + len(ending))
            status = responses[5]
            assert status["members"] == [0, 1, 2]
            # the exit snapshot restores to the same state, in-process
            # and through ``repro serve --restore``
            restored = ClusterService.restore(load_snapshot(snap_path))
            assert restored.schedule() == svc.schedule()
            code, (snap,) = _serve(
                monkeypatch, capsys, ["--restore", str(snap_path)],
                [[1, 0, "snapshot"]],
            )
            assert code == 0
            assert snap["snapshot"]["schedule_digest"] == schedule_digest(
                svc.schedule()
            )

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
        assert backend["reason"] is None
        assert backend["start_log_entries"] >= status["jobs_started"] > 0
        # counted from the kernel record, not a built start log
        assert status["jobs_started"] == len(svc.schedule())
        # one feed per job: the two keys perf/ reads, nothing buffered
        assert status["ingest"] == {"flushes": 6, "jobs_flushed": 6}
        # ISSUE 22: what the fused REF body did with its decision events
        seen = backend["ref_events"]
        assert set(seen) == {"forced", "contested", "unsafe", "guard", "engines"}
        assert seen["forced"] + seen["contested"] > 0
        json.dumps(status)
        svc.leave_org(5)
        backend = svc.status()["policy_backend"]
        assert (backend["backend"], backend["materializations"]) == (
            "engines", 1
        )
        assert svc._policy.fleet.materialize_reason == "remove_mask"
        assert backend["reason"] == "remove_mask"
        assert backend["ref_events"] == seen  # counts outlive the epoch
        fleet_keys = set(backend) - {"ref_events"}
        for policy, counters in [
            ("rand", "rand_events"),
            ("ref_stratified", "rand_events"),
            ("ref_adaptive", "certificates"),
        ]:
            sampled = ClusterService([1, 1, 1], policy, seed=0)
            assert set(sampled.status()["policy_backend"]) == (
                fleet_keys | {counters}
            ), policy
        assert ClusterService([1], "fifo").status()["policy_backend"] is None

    def test_engines_backed_sampled_fleets_say_why(self):
        """After a join a RAND service's epoch oracle is built empty and
        filled mask by mask, so it serves on engines without a fallback:
        the status names that cause."""
        svc = ClusterService([1] * 8, "rand", seed=0)
        for org in range(8):
            svc.submit(org, 2)
        svc.advance(1)
        backend = svc.status()["policy_backend"]
        assert (backend["backend"], backend["reason"]) == ("kernel", None)
        svc.join_org(1)
        svc.submit(8, 2)
        svc.advance(2)
        backend = svc.status()["policy_backend"]
        assert (
            backend["backend"], backend["materializations"], backend["reason"]
        ) == ("engines", 0, "below_threshold")
        assert [o.backend_status()["reason"] for o in svc._policy._oracles] == [
            "below_threshold"
        ] * len(svc._policy._oracles)

    def test_rand_events_count_capable_events_across_epochs(self):
        """An online RAND service reports its forced / contested split,
        and the counts outlive a membership change's redraw."""
        svc = ClusterService([1, 1, 1], "rand", seed=0)
        for tick in range(6):
            svc.submit(0, 3, release=tick)
            if tick % 2:
                svc.submit(1, 2, release=tick)
        svc.advance(6)
        seen = svc.status()["policy_backend"]["rand_events"]
        assert set(seen) == {"forced", "contested"}
        assert seen["forced"] > 0 and seen["contested"] > 0
        svc.leave_org(2)
        assert svc.status()["policy_backend"]["rand_events"] == seen
        svc.drain()
        after = svc.status()["policy_backend"]["rand_events"]
        assert sum(after.values()) > sum(seen.values())

    def test_ref_events_count_events_served_on_engines(self):
        """Regression: once a REF fleet left the kernel (a machine added
        here; any join or leave does the same), every later event took
        the per-coalition body uncounted, so ``ref_events`` froze at the
        fallback.  ``ref_events["engines"]`` counts each of them."""
        rng = np.random.default_rng(0)
        svc = ClusterService([2, 1, 1, 1, 1, 1, 1, 1], "ref", seed=0)
        on_engines = []
        step = RefRun.step

        def spy(run, t):
            on_engines.append(svc._policy.fleet.kernel is None)
            step(run, t)

        clock = 0
        with mock.patch.object(RefRun, "step", spy):
            for i in range(120):
                if i == 40:
                    before = svc.status()["policy_backend"]
                    svc.add_machines(0, 1)
                if i % 20 == 0:  # bursts of 20 jobs, 6 ticks apart
                    clock += 6
                    svc.advance(clock)
                svc.submit(int(rng.integers(8)), int(rng.integers(1, 5)))
            svc.drain()
        after = svc.status()["policy_backend"]
        assert before["backend"] == "kernel"
        assert before["ref_events"]["engines"] == 0
        assert (after["backend"], after["materializations"]) == ("engines", 1)
        assert on_engines.count(True) > 0
        assert after["ref_events"] == {
            **before["ref_events"], "engines": on_engines.count(True)
        }

    def test_malformed_json_is_in_band_error(self):
        svc = ClusterService([1], "fifo")
        out = io.StringIO()
        lines = '{not json}\n5\n"x"\n[1]\n{"op":"status"}\n[2,0,"status"]\n'
        serve_rows({0: svc}, io.StringIO(lines), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        # every bad line (the retired dict vocabulary included) answered
        # in-band; the daemon kept serving
        assert [r["ok"] for r in responses] == [False] * 5 + [True]

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
