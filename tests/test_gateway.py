"""Gateway subsystem tests (PR 8): routing, admission, the worker loop,
the subprocess fleet, crash recovery, and the CLI surface.

The load-bearing assertions are the bit-identity ones: a sharded fleet
driven online -- including one that was checkpointed under load, had a
worker SIGKILLed mid-stream and restored -- must produce, per shard,
exactly the schedule the single-machine batch scheduler produces for
that shard's workload (verified by ``schedule_digest``).
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import (
    AdmissionController,
    AdmissionError,
    Gateway,
    GatewayConfig,
    LoadSpec,
    ShardUnavailable,
    TenantSpec,
    TokenBucket,
    WorkerDied,
    generate_stream,
    load_wal,
    run_loadgen,
    shard_of,
    stable_hash,
    verify_against_batch,
    wal_path,
    worker_of,
)
from repro.gateway.gateway import gateway_serve_loop
from repro.gateway.supervisor import SupervisorPolicy
from repro.gateway.transport import LATENCY_WINDOW
from repro.gateway.worker import (
    serve_shards,
    shard_snapshot_path,
    worker_main,
)
from repro.service.daemon import (
    ShutdownRequested,
    install_shutdown_handlers,
    timed_lines,
)
from repro.service.snapshot import load_snapshot

from .conftest import small_config

REPO_ROOT = Path(__file__).parent.parent


# ---------------------------------------------------------------------------
# routing + config
# ---------------------------------------------------------------------------
class TestRouting:
    def test_stable_hash_is_process_independent(self):
        # frozen values: a routing change is a breaking protocol change
        assert stable_hash("t0") == 0x512F26ADA3C3D634
        assert shard_of("t0", 8) == 0x512F26ADA3C3D634 % 8

    def test_worker_round_robin(self):
        assert [worker_of(s, 3) for s in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_of("t", 0)
        with pytest.raises(ValueError):
            worker_of(1, 0)


class TestGatewayConfig:
    def test_routes_cover_all_tenants_and_orgs_are_contiguous(self):
        config = small_config(n_tenants=32, n_shards=8)
        assert len(config.routes) == 32
        for shard, tenants in config.shard_map.items():
            orgs = [config.routes[t.name][1] for t in tenants]
            assert orgs == list(range(len(tenants)))

    def test_org_ids_follow_declaration_order(self):
        config = small_config(n_tenants=32, n_shards=4)
        for shard, tenants in config.shard_map.items():
            decl = [config.tenants.index(t) for t in tenants]
            assert decl == sorted(decl)

    def test_worker_shards_partition_the_shards(self):
        config = small_config(n_tenants=64, n_workers=3, n_shards=8)
        seen = []
        for w in range(3):
            seen.extend(config.worker_shards(w))
        assert sorted(seen) == list(config.shard_ids())

    def test_content_hash_changes_with_shape(self):
        a = small_config()
        assert a.content_hash() == small_config().content_hash()
        assert a.content_hash() != small_config(n_shards=8).content_hash()
        assert (
            a.content_hash()
            != small_config(policy="directcontr").content_hash()
        )

    def test_shard_seed_offsets_base_seed(self):
        config = small_config(seed=10)
        assert config.shard_seed(3) == 13

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            GatewayConfig(
                tenants=(TenantSpec("a"), TenantSpec("a")), n_shards=2
            )
        with pytest.raises(ValueError):
            GatewayConfig(tenants=())
        with pytest.raises(ValueError):
            TenantSpec("a", rate=0.0)
        with pytest.raises(ValueError):
            TenantSpec("")


# ---------------------------------------------------------------------------
# admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_token_bucket_refills_on_virtual_clock(self):
        b = TokenBucket(rate=2.0, burst=4.0)
        assert all(b.take(0) for _ in range(4))
        assert not b.take(0)
        assert b.take(1)  # +2 tokens at t=1
        assert b.take(1)
        assert not b.take(1)

    def test_rate_limit_and_refill(self):
        config = GatewayConfig(
            tenants=(TenantSpec("a", rate=1.0, burst=2),), n_shards=1
        )
        adm = AdmissionController(config)
        adm.admit_submit("a", 1)
        adm.admit_submit("a", 1)
        with pytest.raises(AdmissionError) as exc:
            adm.admit_submit("a", 1)
        assert exc.value.code == "rate_limited"
        adm.admit_submit("a", 1, now=5)  # refilled

    def test_credits_are_charged_by_size_and_refundable(self):
        config = GatewayConfig(
            tenants=(TenantSpec("a", credits=5),), n_shards=1
        )
        adm = AdmissionController(config)
        adm.admit_submit("a", 4)
        with pytest.raises(AdmissionError) as exc:
            adm.admit_submit("a", 2)
        assert exc.value.code == "insufficient_credits"
        assert adm.add_credits("a", 10) == 11.0
        adm.admit_submit("a", 2)

    def test_rejection_leaves_tokens_and_credits_untouched(self):
        config = GatewayConfig(
            tenants=(TenantSpec("a", rate=1.0, burst=1, credits=1),),
            n_shards=1,
        )
        adm = AdmissionController(config)
        with pytest.raises(AdmissionError):
            adm.admit_submit("a", 3)  # credits refuse; token not charged
        adm.admit_submit("a", 1)  # the banked token is still there

    def test_unknown_tenant_and_bad_size(self):
        adm = AdmissionController(small_config())
        with pytest.raises(AdmissionError) as exc:
            adm.admit_submit("nobody", 1)
        assert exc.value.code == "unknown_tenant"
        with pytest.raises(AdmissionError) as exc:
            adm.admit_submit("t0", 0)
        assert exc.value.code == "bad_request"

    def test_status_counts_by_code(self):
        config = GatewayConfig(
            tenants=(TenantSpec("a", rate=1.0, burst=1),), n_shards=1
        )
        adm = AdmissionController(config)
        adm.admit_submit("a", 1)
        for _ in range(3):
            with pytest.raises(AdmissionError):
                adm.admit_submit("a", 1)
        row = adm.status()["a"]
        assert row["accepted"] == 1
        assert row["rejected"] == 3
        assert row["rejected_by_code"] == {"rate_limited": 3}


# ---------------------------------------------------------------------------
# worker loop (in-process)
# ---------------------------------------------------------------------------
def run_worker(manifest, cmds):
    lines = iter([json.dumps(c) for c in cmds])
    out = io.StringIO()
    shards = serve_shards(manifest, lines, out)
    responses = [json.loads(l) for l in out.getvalue().splitlines()]
    return responses[0], responses[1:], shards


MANIFEST = {
    "worker": 0,
    "shards": {
        "0": {"machine_counts": [1, 1], "policy": "fifo", "seed": 0},
        "2": {"machine_counts": [2], "policy": "fifo", "seed": 2},
    },
    "restore": {},
    "snapshot_dir": None,
}


class TestWorkerLoop:
    def test_ready_line_and_shard_dispatch(self):
        hello, resps, _ = run_worker(
            MANIFEST,
            [
                [1, 0, "submit", 0, 2, None],
                [2, 2, "submit", 0, 1, 4],
                [3, 0, "drain"],
                [4, 2, "advance", 9],
            ],
        )
        assert hello == {
            "ok": True,
            "worker": 0,
            "shards": [0, 2],
            "restored": [],
        }
        # int arrays led by the request id: [id, job id, index, release],
        # [id, clock] for a drain, [id, clock, events] for an advance
        assert resps == [[1, 0, 0, 0], [2, 0, 0, 4], [3, 2], [4, 9, 2]]

    def test_errors_are_in_band(self):
        _, resps, _ = run_worker(
            MANIFEST,
            [
                [1, 7, "submit", 0, 1, None],
                [2, "nonsense"],
                [3, 0, "submit", 99, 1, None],
                [4, 0, "status"],
            ],
        )
        assert [r["ok"] for r in resps] == [False, False, False, True]
        assert [r["id"] for r in resps] == [1, 2, 3, 4]
        assert "shard 7" in resps[0]["error"]

    def test_shard_stop_does_not_kill_the_worker(self):
        # "stop" is no shard op on the pipe: refused in-band, worker serves on
        _, resps, _ = run_worker(
            MANIFEST,
            [
                [1, 0, "stop"],
                [2, 2, "status"],
            ],
        )
        assert len(resps) == 2 and resps[1]["ok"]
        assert not resps[0]["ok"] and "'stop'" in resps[0]["error"]

    def test_worker_status_and_snapshot_shards(self, tmp_path):
        _, resps, _ = run_worker(
            {**MANIFEST, "snapshot_dir": str(tmp_path)},
            [
                [1, 0, "submit", 0, 3, None],
                [2, "worker_status"],
                [3, "snapshot_shards"],
            ],
        )
        assert set(resps[1]["shards"]) == {"0", "2"}
        snaps = resps[2]["snapshots"]
        assert set(snaps) == {"0", "2"}
        for sid in ("0", "2"):
            payload = load_snapshot(snaps[sid]["path"])
            assert payload["content_hash"] == snaps[sid]["content_hash"]

    def test_restore_resumes_bit_identically(self, tmp_path):
        cmds = [
            [1, 0, "submit", 0, 3, None],
            [2, 0, "submit", 1, 1, None],
            [3, 0, "advance", 1],
        ]
        _, resps, _ = run_worker(
            {**MANIFEST, "snapshot_dir": str(tmp_path)},
            cmds + [[4, "snapshot_shards"]],
        )
        tail = [
            [5, 0, "submit", 0, 2, None],
            [6, 0, "drain"],
            [7, 0, "snapshot"],
        ]
        # straight-through run
        _, straight, _ = run_worker(MANIFEST, cmds + tail)
        # restored run
        hello, restored, _ = run_worker(
            {
                **MANIFEST,
                "restore": {
                    "0": str(shard_snapshot_path(tmp_path, 0)),
                },
            },
            tail,
        )
        assert hello["restored"] == [0]
        assert (
            straight[-1]["snapshot"]["schedule_digest"]
            == restored[-1]["snapshot"]["schedule_digest"]
        )

    @pytest.mark.parametrize(
        "row",
        [
            [1, 0, "launch", 0],  # unknown kind
            [1, 0, "join", 1],  # the retired dict word, not the journal's
            [1, 0, "submit", 0, 2],  # wrong arity
            [1, 0, "submit", 0, 3.0, None],
            [1, 0, "submit", 0, "3", None],
            [1, 0, "submit", 0, True, None],
            [1, 0, "submit", 0, None, None],  # only release may be null
            [1, 0, "advance", None],
            [1, 0, "leave_org", 0.0],
            [1, 0, ["submit"], 0, 1, None],
            [1, 0, ["status"]],
        ],
    )
    def test_malformed_rows_are_refused_in_band(self, row):
        _, resps, shards = run_worker(MANIFEST, [row, [2, 0, "status"]])
        refusal, status = resps
        assert set(refusal) == {"id", "ok", "error"}
        assert (refusal["id"], refusal["ok"]) == (1, False)
        assert repr(row) in refusal["error"]  # the message names the row
        assert status["ok"] and status["jobs_submitted"] == 0
        assert shards[0].journal == []  # nothing reached the shard

    def test_worker_main_reads_manifest_and_rows_from_one_reader(
        self, monkeypatch, capsys, keep_signal_handlers
    ):
        stdin = [json.dumps(MANIFEST), '[1, 0, "submit", 0, 2, null]',
                 '[2, "shutdown"]', '[3, "ping"]']
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(stdin)))
        assert worker_main() == 0
        hello, *replies = capsys.readouterr().out.splitlines()
        assert json.loads(hello)["shards"] == [0, 2]
        # nothing after the shutdown row is read
        assert replies == [
            "[1,0,0,0]", '{"ok": true, "stopped": true, "id": 2}'
        ]

    @pytest.mark.parametrize(
        "stdin, message",
        [("", "no manifest on stdin"), ("{torn\n", "bad manifest")],
    )
    def test_worker_main_refuses_a_missing_or_bad_manifest(
        self, stdin, message, monkeypatch, capsys, keep_signal_handlers
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert worker_main() == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_signal_checkpoints_every_shard_and_propagates(
        self, tmp_path, keep_signal_handlers
    ):
        install_shutdown_handlers()

        def lines():
            yield '[1, 0, "submit", 0, 2, null]'
            os.kill(os.getpid(), signal.SIGTERM)
            yield '[2, 0, "status"]'  # not reached

        out = io.StringIO()
        with pytest.raises(ShutdownRequested, match="signal 15"):
            serve_shards(
                {**MANIFEST, "snapshot_dir": str(tmp_path)}, lines(), out
            )
        assert out.getvalue().splitlines()[1:] == ["[1,0,0,0]"]
        for sid in (0, 2):
            assert load_snapshot(shard_snapshot_path(tmp_path, sid))
        assert load_snapshot(shard_snapshot_path(tmp_path, 0))["journal"]


#: Raw wire rows for one shard, some refused by the service (unknown org,
#: a release before the org's last one, the last member leaving, ...).
_WIRE_ROWS = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(0, 3),
        st.integers(1, 4),
        st.one_of(st.none(), st.integers(0, 12)),
    ),
    st.tuples(st.just("advance"), st.integers(0, 12)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("join_org"), st.integers(0, 2)),
    st.tuples(st.just("leave_org"), st.integers(0, 3)),
    st.tuples(
        st.sampled_from(["add_machines", "remove_machines"]),
        st.integers(0, 3),
        st.integers(1, 2),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    policy=st.sampled_from(["fifo", "directcontr"]),
    machines=st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        min_size=2,
        max_size=2,
    ),
    ops=st.lists(
        st.tuples(st.integers(0, 1), _WIRE_ROWS), max_size=40
    ),
)
def test_worker_rows_equal_direct_ingest(policy, machines, ops):
    """``serve_shards`` fed generated rows (ties, null releases,
    membership churn, refusals) leaves every shard exactly where a
    ``ClusterService`` fed the same ops by direct calls stands."""
    from repro.service import ClusterService
    from repro.service.snapshot import schedule_digest

    manifest = {
        "worker": 0,
        "shards": {
            str(s): {"machine_counts": m, "policy": policy, "seed": s}
            for s, m in enumerate(machines)
        },
    }
    lines = [
        json.dumps([i, shard, *row]) for i, (shard, row) in enumerate(ops)
    ]
    out = io.StringIO()
    shards = serve_shards(manifest, lines, out)
    replies = [json.loads(l) for l in out.getvalue().splitlines()[1:]]
    direct = [
        ClusterService(m, policy, seed=s) for s, m in enumerate(machines)
    ]
    assert len(replies) == len(ops)
    for i, ((shard, (kind, *values)), reply) in enumerate(zip(ops, replies)):
        try:
            result = getattr(direct[shard], kind)(*values)
        except ValueError:
            assert reply == {"id": i, "ok": False, "error": reply["error"]}
            continue
        assert reply[0] == i
        if kind == "submit":
            assert reply[1:] == [result.id, result.index, result.release]
    for s, svc in enumerate(direct):
        assert shards[s].journal == svc.journal
        assert schedule_digest(shards[s].schedule()) == schedule_digest(
            svc.schedule()
        )


# ---------------------------------------------------------------------------
# the subprocess fleet
# ---------------------------------------------------------------------------
class TestGatewayFleet:
    def test_loadgen_verifies_against_batch_per_shard(self):
        config = small_config(n_tenants=16, n_shards=4, policy="fifo")
        with Gateway(config) as gw:
            report = run_loadgen(
                gw, LoadSpec(n_events=1500, n_releases=40, seed=1)
            )
        assert report.verified is True
        assert report.n_accepted == 1500
        assert gw.pool.n_live_workers == 0  # closed

    def test_multiple_policies_verify(self):
        for policy in ("directcontr", "fairshare"):
            config = small_config(
                n_tenants=8, n_shards=4, policy=policy, seed=2
            )
            with Gateway(config) as gw:
                report = run_loadgen(
                    gw, LoadSpec(n_events=400, n_releases=20, seed=3)
                )
            assert report.verified is True, policy

    def test_admission_rejections_never_reach_a_shard(self):
        config = small_config(
            n_tenants=8, n_shards=4, credits=20, policy="fifo"
        )
        with Gateway(config) as gw:
            report = run_loadgen(
                gw, LoadSpec(n_events=600, n_releases=30, max_size=4, seed=4)
            )
            assert report.n_rejected > 0
            assert report.rejected_by_code.keys() == {
                "insufficient_credits"
            }
            # the shards saw exactly the admitted jobs -- and the batch
            # check (which replays only admitted events) still passes
            assert report.verified is True
            assert not gw.forward_errors

    def test_unknown_tenant_is_in_band(self):
        config = small_config(n_tenants=4)
        with Gateway(config) as gw:
            resp = gw.submit("nobody", 1)
            assert resp == {
                "ok": False,
                "tenant": "nobody",
                "error": "unknown tenant 'nobody'",
                "code": "unknown_tenant",
            }
            gw.drain()

    def test_non_int_size_or_release_is_refused_uncharged(self):
        # a float size used to be charged at face value (2.9 credits) and
        # run truncated (a size-2 job); now it never reaches admission
        config = GatewayConfig.uniform(
            2, n_workers=1, n_shards=1, policy="fifo", credits=10
        )
        shard = config.routes["t0"][0]
        with Gateway(config) as gw:
            for size, release in ((2.9, 0), ("3", 0), (True, 0), (2, 0.5)):
                resp = gw.submit("t0", size, release, wait=True)
                assert (resp["ok"], resp["code"]) == (False, "bad_request")
                assert repr(size) in resp["error"]
            row = gw.admission.status()["t0"]
            assert (row["accepted"], row["accepted_work"]) == (0, 0)
            assert row["credits_remaining"] == 10
            assert row["rejected_by_code"] == {"bad_request": 4}
            assert gw.n_rejected == 4 and gw.n_submitted == 0
            assert gw.pool.wal[shard] == []  # the shard received nothing
            snap = gw.pool.call(shard, ["snapshot"], log=False)["snapshot"]
            assert snap["journal"] == []
            # an int submit still goes through, charged by its size
            resp = gw.submit("t0", 2, None, wait=True)
            assert resp == {
                "tenant": "t0", "ok": True, "job_id": 0, "org": 0,
                "index": 0, "release": 0, "shard": shard,
            }
            assert gw.admission.status()["t0"]["credits_remaining"] == 8
            snap = gw.pool.call(shard, ["snapshot"], log=False)["snapshot"]
            assert snap["journal"] == [["submit", 0, 0, 2, 0, 0, 0]]

    def test_serve_loop_passes_size_and_release_through(self):
        # the JSONL loop used to int() them before submit: 2.9 ran a
        # size-2 job, true a size-1 job, "3" a size-3 job, and release
        # 1.7 released at 1 -- all charged; now submit refuses each
        config = GatewayConfig.uniform(
            2, n_workers=1, n_shards=1, policy="fifo", credits=10
        )
        shard = config.routes["t0"][0]
        cmds = [
            {"id": 1, "op": "submit", "tenant": "t0", "size": 2.9},
            {"id": 2, "op": "submit", "tenant": "t0", "size": True},
            {"id": 3, "op": "submit", "tenant": "t0", "size": "3"},
            {"id": 4, "op": "submit", "tenant": "t0", "size": 2,
             "release": 1.7},
            {"id": 5, "op": "stop"},
        ]
        out = io.StringIO()
        with Gateway(config) as gw:
            gateway_serve_loop(gw, [json.dumps(c) for c in cmds], out)
            row = gw.admission.status()["t0"]
            assert gw.pool.wal[shard] == []  # nothing was forwarded
            snap = gw.pool.call(shard, ["snapshot"], log=False)["snapshot"]
            assert snap["journal"] == []
        resps = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [(r["id"], r["ok"], r.get("code")) for r in resps] == [
            (1, False, "bad_request"), (2, False, "bad_request"),
            (3, False, "bad_request"), (4, False, "bad_request"),
            (5, True, None),
        ]
        assert (row["accepted"], row["accepted_work"]) == (0, 0)
        assert row["credits_remaining"] == 10
        assert row["rejected_by_code"] == {"bad_request": 4}

    def test_raced_shard_refusal_costs_the_tenant_nothing(self, monkeypatch):
        # the shard passes the health check, admission charges, and the
        # send then finds it unavailable with nowhere to park: the charge
        # is refunded and the refusal is typed and counted
        config = small_config(n_tenants=4, rate=1.0, burst=2.0, credits=10)
        shard = config.routes["t0"][0]
        with Gateway(config) as gw:
            assert gw.submit("t0", 1)["ok"]
            before = gw.admission.status()["t0"]
            submitted, rejected = gw.n_submitted, gw.n_rejected

            def raced(*args, **kwargs):
                raise ShardUnavailable(shard, "down", "worker went down")

            monkeypatch.setattr(gw.pool, "shard_cmd", raced)
            resp = gw.submit("t0", 3)
            monkeypatch.undo()
            after = gw.admission.status()["t0"]
            assert (gw.n_submitted, gw.n_rejected) == (submitted, rejected + 1)
            gw.drain()
            assert gw.status()["jobs_submitted"] == 1  # no shard saw it
        assert resp == {
            "ok": False,
            "tenant": "t0",
            "shard": shard,
            "error": "worker went down",
            "code": "shard_unavailable",
        }
        assert after.pop("rejected") == before.pop("rejected") + 1
        assert after.pop("rejected_by_code") == {"shard_unavailable": 1}
        assert after == before  # tokens, credits, accepted, accepted_work

    def test_status_aggregates_fleet_and_tenants(self):
        config = small_config(n_tenants=8, n_shards=4, credits=50)
        with Gateway(config) as gw:
            for i in range(8):
                gw.submit(f"t{i}", 2)
            gw.advance(1)
            status = gw.status()
        assert status["jobs_submitted"] == 8
        assert status["tenants"] == 8
        assert status["workers"] == 2
        assert set(status["per_tenant"]) == {f"t{i}" for i in range(8)}
        row = status["per_tenant"]["t0"]
        assert row["accepted"] == 1
        assert row["credits_remaining"] == 48.0
        assert row["jobs_submitted"] == 1
        assert (
            sum(s["ingest"]["jobs_flushed"] for s in
                status["per_shard"].values())
            == 8
        )
        # the transport block: what crossed each worker's pipes (no
        # snapshot_dir here, so no durable WAL records)
        transport = status["transport"]
        assert set(transport["workers"]) == {"0", "1"}
        assert transport["wal_appends"] == 0
        for row in transport["workers"].values():
            assert set(row) == {"tx_writes", "tx_commands", "rx_reads"}
            assert row["rx_reads"] >= 1
        # 8 submits + 4 advances + the status barrier's worker_status ops
        assert sum(
            r["tx_commands"] for r in transport["workers"].values()
        ) >= 12

    def test_latency_percentiles_present(self):
        config = small_config(n_tenants=4)
        with Gateway(config) as gw:
            report = run_loadgen(
                gw, LoadSpec(n_events=200, n_releases=10, seed=5)
            )
            # the sample window is bounded: a long-lived gateway keeps
            # the newest LATENCY_WINDOW round trips, same keys
            gw.pool.latencies_s.extend([0.001] * (LATENCY_WINDOW + 5))
            assert len(gw.pool.latencies_s) == LATENCY_WINDOW
            assert set(gw.latency_percentiles()) == {"p50_ms", "p99_ms"}
        assert report.p50_ms > 0
        assert report.p99_ms >= report.p50_ms


# ---------------------------------------------------------------------------
# frame coalescing: flush before you block (ISSUE 13, DESIGN.md §11.3)
# ---------------------------------------------------------------------------
def unsent(gw):
    return [w for w, h in gw.pool.workers.items() if h.has_unsent]


class TestFrames:
    def test_pipelined_commands_share_one_frame(self):
        config = small_config(n_tenants=8)
        with Gateway(config) as gw:
            gw.pool.barrier()
            before = gw.pool.transport_status()["workers"]
            for i in range(8):
                assert gw.submit(f"t{i}", 1)["queued"]
            # nothing left the front door: the submits wait in the frames
            assert gw.pool.transport_status()["workers"] == before
            assert unsent(gw) == [0, 1]
            # the caller waits on ONE shard: every worker's frame leaves
            # (one write each), or the others would sit idle meanwhile
            assert gw.submit("t0", 1, wait=True)["ok"]
            after = gw.pool.transport_status()["workers"]
            assert unsent(gw) == []
        assert sum(after[w]["tx_writes"] - before[w]["tx_writes"]
                   for w in after) == 2
        assert sum(after[w]["tx_commands"] - before[w]["tx_commands"]
                   for w in after) == 9

    def test_window_bounds_unanswered_commands(self):
        config = small_config(n_tenants=8)
        stream = generate_stream(
            config, LoadSpec(n_events=300, n_releases=3, seed=2)
        )
        with Gateway(config, max_inflight=8) as gw:
            for release, tenant, size in stream:
                assert gw.submit(tenant, size, release)["ok"]
                assert all(
                    len(h.pending) <= 8 for h in gw.pool.workers.values()
                )
            gw.drain()
            workers = gw.pool.transport_status()["workers"]
            assert gw.shard_digests() == verify_against_batch(config, stream)
        # a full window settles down to half, so frames under
        # backpressure carry about half a window, not one command
        assert all(
            row["tx_commands"] / row["tx_writes"] >= 3
            for row in workers.values()
        )

    def test_caller_pause_is_not_charged_to_the_worker(self, tmp_path):
        # the response deadline runs from the flush that carried a
        # command, not from its enqueue: a caller that pipelines a few
        # submits and pauses longer than the heartbeat must not get a
        # healthy worker declared stalled (stamping at enqueue did:
        # 3 spurious recoveries, 32 lost responses on this pattern)
        sup = SupervisorPolicy(heartbeat_timeout_s=0.3, ping_interval_s=None)
        config = small_config(n_tenants=8)
        stream = []
        with Gateway(config, snapshot_dir=tmp_path, supervisor=sup) as gw:
            for release in range(3):
                for i in range(8):
                    assert gw.submit(f"t{i}", 1 + i % 3, release)["ok"]
                    stream.append((release, f"t{i}", 1 + i % 3))
                time.sleep(0.45)
            gw.drain()
            status = gw.status()
            digests = gw.shard_digests()
        assert status["supervisor"]["auto_recoveries"] == 0
        assert status["lost_responses"] == 0
        assert digests == verify_against_batch(config, stream)

    def test_wal_record_precedes_the_frame(self, tmp_path):
        # write-ahead order: when a pipelined submit returns, its record
        # is already in the shard's WAL file while its bytes have not
        # even left for the worker
        config = small_config(n_tenants=8)
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            for i, tenant in enumerate(config.routes):
                shard, org = config.routes[tenant]
                assert gw.submit(tenant, 1 + i, 0)["queued"]
                assert worker_of(shard, config.n_workers) in unsent(gw)
                assert load_wal(wal_path(tmp_path, shard)).commands[-1] == [
                    "submit", org, 1 + i, 0,
                ]
            wals = gw.pool.dwal.values()
            assert sum(w.fsyncs for w in wals) == 0
            gw.snapshot_all()  # one fsynced marker per shard, as before
            assert sum(w.fsyncs for w in wals) == len(config.shard_ids())
            gw.advance(1)
            gw.snapshot_all()
            assert sum(w.fsyncs for w in wals) == 2 * len(config.shard_ids())
            assert gw.status()["transport"]["wal_appends"] == 8 + 4
            assert all(w.opens == 1 for w in wals)  # the handles stay open

    def test_serve_loop_flushes_before_waiting_for_input(self):
        # a lone piped submit must not sit in the tx buffer until the
        # idle tick: the loop flushes before it goes back to its input
        config = small_config(n_tenants=4)
        seen = []

        def lines(gw):
            yield json.dumps({"id": 1, "op": "submit", "tenant": "t0",
                              "size": 1})
            seen.append(unsent(gw))  # the loop is asking for more input
            yield json.dumps({"id": 2, "op": "stop"})

        out = io.StringIO()
        with Gateway(config) as gw:
            gateway_serve_loop(gw, lines(gw), out)
        assert seen == [[]]
        assert [json.loads(l)["ok"] for l in out.getvalue().splitlines()] == [
            True, True,
        ]

    def test_serve_loop_add_credits_and_heartbeat(self):
        config = small_config(n_tenants=4, credits=2)
        cmds = [
            {"id": 1, "op": "submit", "tenant": "t0", "size": 3},
            {"id": 2, "op": "add_credits", "tenant": "t0", "amount": 5},
            {"id": 3, "op": "submit", "tenant": "t0", "size": 3},
            {"id": 4, "op": "add_credits", "tenant": "t0", "amount": -1},
            {"id": 5, "op": "add_credits", "tenant": "nobody", "amount": 1},
            {"id": 6, "op": "stop"},
        ]
        out, stats = io.StringIO(), io.StringIO()
        with Gateway(config) as gw:
            gateway_serve_loop(
                gw, [json.dumps(c) for c in cmds], out,
                stats_every_s=0, stats_out=stats,
            )
            head = (
                f"[gateway] clock=0 workers={gw.pool.n_live_workers} "
                f"shards={len(config.shard_ids())} "
            )
        resps = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [r["id"] for r in resps] == [1, 2, 3, 4, 5, 6]
        assert resps[0]["code"] == "insufficient_credits"
        assert resps[1] == {
            "ok": True, "tenant": "t0", "credits_remaining": 7.0, "id": 2,
        }
        assert resps[2]["ok"]
        assert (resps[3]["ok"], resps[3]["code"]) == (False, "bad_request")
        assert (resps[4]["ok"], resps[4]["code"]) == (False, "unknown_tenant")
        # stats_every_s=0: one heartbeat line per handled command
        beats = stats.getvalue().splitlines()
        assert len(beats) == len(cmds)
        assert all(b.startswith(head) for b in beats)
        assert " submitted=1 rejected=1 " in beats[-1]

    def test_timed_lines_calls_before_wait_once_per_wait_not_per_line(self):
        r, w = os.pipe()
        events = []
        with os.fdopen(r, "rb") as stream:
            os.write(w, b"a\nb\n")
            source = timed_lines(stream, None, lambda: events.append("wait"))
            assert [next(source), next(source)] == ["a", "b"]
            os.write(w, b"c\n")
            os.close(w)
            assert list(source) == ["c"]
        # before the first read, after the chunk "a b", before EOF
        assert events == ["wait", "wait", "wait"]


def spawn_worker():
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            "from repro.gateway.worker import worker_main; "
            "raise SystemExit(worker_main())",
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def reply_id(resp):
    """The request id of a worker reply: an int array's head, or a dict's
    ``id`` (``None`` for the hello line)."""
    return resp[0] if isinstance(resp, list) else resp.get("id")


class TestWorkerFlushPoints:
    CMDS = [[i, 0, "submit", 0, 1, None] for i in range(1, 41)]

    def converse(self, manifest, cmds):
        proc = spawn_worker()
        text = "".join(json.dumps(row) + "\n" for row in [manifest, *cmds])
        out, _ = proc.communicate(text.encode(), timeout=60)
        return proc.returncode, [json.loads(l) for l in out.splitlines()]

    def test_real_pipe_to_eof_returns_every_reply(self):
        # no shutdown op: the buffered replies must leave at EOF
        code, replies = self.converse(MANIFEST, self.CMDS)
        assert code == 0
        assert [reply_id(r) for r in replies] == [None, *range(1, 41)]
        assert replies[0]["ok"]
        assert all(r == [i, i - 1, i - 1, 0] for i, r in enumerate(replies)
                   if i)

    def test_crash_late_delivers_its_reply_before_exit(self):
        fault = {"worker": 0, "incarnation": 0, "kind": "crash_late",
                 "at_op": 7}
        code, replies = self.converse({**MANIFEST, "fault": fault}, self.CMDS)
        assert code == 137  # the injected hard exit
        # the 7th reply was written, then the worker died: all 7 arrive
        assert [reply_id(r) for r in replies] == [None, *range(1, 8)]


class TestCrashRecovery:
    def kill_restore_run(self, policy, tmp_path, **cfg):
        config = small_config(policy=policy, **cfg)
        spec = LoadSpec(n_events=800, n_releases=40, seed=6)
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            report = run_loadgen(
                gw,
                spec,
                snapshot_at_release=12,
                kill_worker_at_release=25,
            )
            assert gw.pool.restores == 1
        return report

    def test_kill_and_restore_is_bit_identical_single_engine(self, tmp_path):
        report = self.kill_restore_run("fairshare", tmp_path, n_tenants=12)
        assert report.verified is True

    def test_kill_and_restore_is_bit_identical_kernel_ref(self, tmp_path):
        # the kernel-backed REF engine must survive the same crash story
        report = self.kill_restore_run(
            "ref", tmp_path, n_tenants=8, horizon=300
        )
        assert report.verified is True

    def test_kill_without_checkpoint_replays_full_wal(self, tmp_path):
        config = small_config(n_tenants=8, policy="fifo")
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            report = run_loadgen(
                gw,
                LoadSpec(n_events=400, n_releases=20, seed=7),
                kill_worker_at_release=10,  # no snapshot_at: WAL-only
            )
        assert report.verified is True

    def test_dead_worker_refuses_commands_until_restored(self, tmp_path):
        config = small_config(n_tenants=8, policy="fifo")
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            gw.submit("t0", 1)
            gw.pool.barrier()
            shard0 = config.routes["t0"][0]
            from repro.gateway.routing import worker_of as wof

            victim = wof(shard0, config.n_workers)
            gw.kill_worker(victim)
            with pytest.raises(WorkerDied):
                gw.pool.call(shard0, ["status"])
            gw.restore_worker(victim)
            resp = gw.pool.call(shard0, ["status"], log=False)
            assert resp["ok"] and resp["jobs_submitted"] == 1

    def test_snapshot_under_load_does_not_change_the_schedule(self, tmp_path):
        spec = LoadSpec(n_events=600, n_releases=30, seed=8)
        config = small_config(n_tenants=8, policy="directcontr")
        with Gateway(config) as gw:
            base = run_loadgen(gw, spec)
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            snapped = run_loadgen(gw, spec, snapshot_at_release=15)
        assert base.verified and snapped.verified
        assert base.shard_digests == snapped.shard_digests
        assert snapped.snapshot_under_load_s is not None


# ---------------------------------------------------------------------------
# stream determinism + the verification harness itself
# ---------------------------------------------------------------------------
class TestLoadgenHarness:
    def test_stream_is_deterministic_and_canonically_ordered(self):
        config = small_config(n_tenants=16)
        spec = LoadSpec(n_events=500, n_releases=20, seed=9)
        a = generate_stream(config, spec)
        assert a == generate_stream(config, spec)
        decl = {t.name: i for i, t in enumerate(config.tenants)}
        keys = [(r, decl[t]) for r, t, _ in a]
        assert keys == sorted(keys)

    def test_verify_detects_a_corrupted_stream(self):
        config = small_config(n_tenants=8, policy="fifo")
        spec = LoadSpec(n_events=300, n_releases=15, seed=10)
        stream = generate_stream(config, spec)
        with Gateway(config) as gw:
            report = run_loadgen(gw, stream=stream)
        assert report.verified is True
        tampered = list(stream)
        r, t, size = tampered[50]
        tampered[50] = (r, t, size + 1)
        expected = verify_against_batch(config, tampered)
        assert expected != report.shard_digests  # the digest is sensitive


# ---------------------------------------------------------------------------
# graceful shutdown (satellite b)
# ---------------------------------------------------------------------------
def spawn_cli(args, **popen_kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        **popen_kwargs,
    )


def wait_for_line(stream, timeout=30.0):
    import select as select_mod

    deadline = time.monotonic() + timeout
    fd = stream.fileno()
    buf = bytearray()
    while time.monotonic() < deadline:
        ready, _, _ = select_mod.select([fd], [], [], 0.2)
        if not ready:
            continue
        b = os.read(fd, 1)
        if not b:
            break
        if b == b"\n":
            return buf.decode()
        buf.extend(b)
    raise AssertionError(f"no line within {timeout}s (got {buf!r})")


class TestGracefulShutdown:
    def test_serve_sigterm_writes_snapshot(self, tmp_path):
        snap = tmp_path / "final.json"
        proc = spawn_cli(
            [
                "serve", "--orgs", "2,1", "--policy", "fifo",
                "--snapshot-to", str(snap),
            ],
            bufsize=1,
        )
        try:
            proc.stdin.write('[1, 0, "submit", 0, 2, null]\n')
            proc.stdin.flush()
            assert json.loads(proc.stdout.readline()) == [1, 0, 0, 0]
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "graceful shutdown" in err
        assert "signal 15" in err
        payload = load_snapshot(snap)
        assert payload["journal"], "snapshot should hold the submitted job"
        # ... and ``repro serve --restore`` resumes from it bit-identically
        proc = spawn_cli(["serve", "--restore", str(snap)])
        out, err = proc.communicate('[1, 0, "snapshot"]\n', timeout=30)
        assert proc.returncode == 0, err
        assert json.loads(out)["snapshot"] == payload

    def test_worker_sigterm_checkpoints_all_shards(self, tmp_path):
        manifest = {
            "worker": 0,
            "shards": {
                "0": {"machine_counts": [1], "policy": "fifo", "seed": 0},
                "1": {"machine_counts": [1], "policy": "fifo", "seed": 1},
            },
            "restore": {},
            "snapshot_dir": str(tmp_path),
        }
        proc = spawn_worker()
        try:
            proc.stdin.write((json.dumps(manifest) + "\n").encode())
            proc.stdin.flush()
            assert json.loads(wait_for_line(proc.stdout))["ok"]
            proc.stdin.write(b'[1, 0, "submit", 0, 2, null]\n')
            proc.stdin.flush()
            assert json.loads(wait_for_line(proc.stdout)) == [1, 0, 0, 0]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        for sid in (0, 1):
            payload = load_snapshot(shard_snapshot_path(tmp_path, sid))
            assert payload["format"] == "repro.service.snapshot"
        # shard 0 recorded the submit it had accepted before the signal
        assert load_snapshot(shard_snapshot_path(tmp_path, 0))["journal"]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestServeIsAWorker:
    #: One script for ``repro serve`` and a worker: every refusal is
    #: in-band and the daemon serves on.
    SCRIPT = [
        '[1, 0, "submit", 0, 2, null]',  # null release: the shard clock
        '[2, 0, "join_org", 1]',
        '[3, 0, "submit", 2, 2.9, null]',  # refused, not truncated to 2
        '[4, 0, "submit", 2, true, null]',  # refused, not read as 1
        '[5, 0, "submit", 2, "3", null]',
        '{"op": "join"}',  # the retired dict vocabulary
        '[6, 0, "submit", 2, 3, 4]',
        '[7, 0, "advance", 5]',
        '[8, 0, "status"]',
        '[9, 0, "snapshot"]',
        '[10, "shutdown"]',
    ]

    def test_serve_replies_are_a_workers_byte_for_byte(self):
        proc = spawn_cli(["serve", "--orgs", "2,1", "--policy", "ref"])
        served, err = proc.communicate(
            "\n".join(self.SCRIPT) + "\n", timeout=60
        )
        assert proc.returncode == 0, err
        out = io.StringIO()
        manifest = {
            "worker": 0,
            "shards": {"0": {"machine_counts": [2, 1], "policy": "ref"}},
        }
        serve_shards(manifest, self.SCRIPT, out)
        worker = out.getvalue().splitlines()[1:]  # after the hello line
        assert served.splitlines() == worker
        assert len(worker) == len(self.SCRIPT)
        replies = [json.loads(line) for line in worker]
        assert [r["ok"] for r in replies[2:6]] == [False] * 4
        assert replies[6] == [6, 1, 0, 4]
        assert replies[-1] == {"ok": True, "stopped": True, "id": 10}


class TestGatewayCli:
    def test_loadgen_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "loadgen", "--events", "300", "--tenants", "64",
            "--releases", "15", "--workers", "2", "--shards", "8",
            "--policy", "fifo", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK (bit-identical per shard)" in out
        assert "64 tenants" in out

    def test_loadgen_kill_restore_subcommand(
        self, capsys, tmp_path, monkeypatch
    ):
        import tempfile

        from repro.cli import main

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code = main([
            "loadgen", "--events", "300", "--tenants", "16",
            "--releases", "15", "--policy", "fifo",
            "--snapshot-at", "5", "--kill-at", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "snapshot cost" in out
        assert "OK (bit-identical per shard)" in out
        # the checkpoint + WAL directory loadgen made for itself is gone
        assert list(tmp_path.iterdir()) == []

    def test_gateway_subcommand_in_process(self, capsys, monkeypatch):
        """``repro gateway`` in this process: one worker, one shard, a
        status command, then EOF ends the loop and closes the fleet."""
        from repro.cli import main

        assert main(["gateway", "--workers", "2", "--shards", "1"]) == 2
        assert "--shards must be >= --workers" in capsys.readouterr().err
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"id": 1, "op": "status"}\n')
        )
        handlers = {
            s: signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            code = main([
                "gateway", "--workers", "1", "--shards", "1",
                "--tenants", "2", "--policy", "fifo",
            ])
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        out, err = capsys.readouterr()
        assert code == 0
        assert "1 workers / 1 shards / 2 tenants, policy=fifo" in err
        (reply,) = [json.loads(line) for line in out.splitlines()]
        assert reply["ok"] and reply["id"] == 1

    def test_gateway_daemon_round_trip(self):
        proc = spawn_cli(
            [
                "gateway", "--workers", "2", "--shards", "4",
                "--tenants", "8", "--policy", "fifo",
            ],
            bufsize=1,
        )
        cmds = [
            {"id": 1, "op": "submit", "tenant": "t3", "size": 2},
            {"id": 2, "op": "submit", "tenant": "nobody", "size": 1},
            {"id": 3, "op": "advance", "t": 2},
            {"id": 4, "op": "status"},
            {"id": 5, "op": "digests"},
            {"id": 6, "op": "stop"},
        ]
        try:
            for cmd in cmds:
                proc.stdin.write(json.dumps(cmd) + "\n")
            proc.stdin.flush()
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        resps = [json.loads(l) for l in out.splitlines()]
        by_id = {r["id"]: r for r in resps}
        assert by_id[1]["ok"] and by_id[1]["tenant"] == "t3"
        assert not by_id[2]["ok"]
        assert by_id[2]["code"] == "unknown_tenant"
        assert by_id[4]["jobs_submitted"] == 1
        assert by_id[5]["ok"] and by_id[5]["digests"]
        assert by_id[6] == {"ok": True, "stopped": True, "id": 6}
