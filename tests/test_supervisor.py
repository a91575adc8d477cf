"""Self-healing gateway tests (ISSUE 10, DESIGN.md §13).

Four layers, cheapest first: the pure supervisor state machine (no
processes), the seeded fault plan, the durable WAL's torn-tail
tolerance, then live fleets with scripted faults -- auto-recovery,
graceful degradation (typed refusals that never charge, park-and-drain),
quarantine, and gateway-process resume.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.gateway import (
    FaultPlan,
    Gateway,
    GatewayConfig,
    LoadSpec,
    ShardPool,
    ShardWal,
    WorkerDied,
    load_wal,
    run_loadgen,
    verify_against_batch,
    wal_path,
)
from repro.gateway.faults import FaultInjector, tear_file_tail
from repro.gateway.transport import _WorkerHandle
from repro.gateway.routing import worker_of
from repro.gateway.wire import body
from repro.gateway.supervisor import (
    ADMIN_DOWN,
    DOWN,
    QUARANTINED,
    UP,
    Supervisor,
    SupervisorPolicy,
)

from .conftest import as_version_1


def small_config(**kwargs):
    defaults = dict(n_workers=2, n_shards=4, policy="fifo", seed=0)
    defaults.update(kwargs)
    n_tenants = defaults.pop("n_tenants", 8)
    return GatewayConfig.uniform(n_tenants, **defaults)


#: Fast-detection policy for process tests: a stalled or silent worker
#: is declared dead within half a second instead of a minute.
FAST = SupervisorPolicy(
    heartbeat_timeout_s=0.4,
    ping_interval_s=0.1,
    backoff_base_s=0.02,
    quarantine_cooldown_s=0.5,
    quarantine_cooldown_v=10_000.0,
)


def victim_for(config, tenant):
    """(shard, worker) owning ``tenant``."""
    shard, _ = config.routes[tenant]
    return shard, worker_of(shard, config.n_workers)


# ---------------------------------------------------------------------------
# the pure state machine (no processes)
# ---------------------------------------------------------------------------
class TestSupervisorPolicy:
    def test_backoff_is_capped_exponential_on_both_clocks(self):
        p = SupervisorPolicy(
            backoff_base_s=0.05, backoff_cap_s=2.0,
            backoff_base_v=1.0, backoff_cap_v=64.0,
        )
        assert p.backoff(1) == (0.05, 1.0)
        assert p.backoff(2) == (0.10, 2.0)
        assert p.backoff(3) == (0.20, 4.0)
        # the cap: attempt 20 would be 0.05 * 2^19 without it
        assert p.backoff(20) == (2.0, 64.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            SupervisorPolicy(park_limit=-1)


class TestSupervisorStateMachine:
    def make(self, **kwargs):
        kwargs.setdefault("backoff_base_s", 1000.0)  # wall leg disabled
        kwargs.setdefault("backoff_base_v", 4.0)
        kwargs.setdefault("quarantine_cooldown_s", 1000.0)
        kwargs.setdefault("quarantine_cooldown_v", 50.0)
        sup = Supervisor(SupervisorPolicy(**kwargs))
        sup.register(0)
        return sup

    def test_failure_schedules_a_respawn_on_the_virtual_clock(self):
        sup = self.make()
        assert sup.state(0) == UP
        assert sup.on_failure(0, "pipe closed", vclock=10) == DOWN
        assert not sup.due_for_respawn(0, vclock=10)
        assert sup.due_for_respawn(0, vclock=14)  # 10 + backoff_base_v

    def test_repeated_failures_back_off_exponentially_then_quarantine(self):
        sup = self.make(max_restarts=2)
        sup.on_failure(0, "crash", vclock=0)       # failure 1: +4
        assert sup.meta[0].next_attempt_v == 4.0
        sup.on_respawn_attempt(0)
        sup.on_failure(0, "crash", vclock=4)       # failure 2: +8
        assert sup.meta[0].next_attempt_v == 12.0
        sup.on_respawn_attempt(0)
        assert sup.on_failure(0, "crash", vclock=12) == QUARANTINED
        assert sup.n_quarantines == 1
        # cooldown (+50 virtual) not served yet
        assert not sup.due_for_respawn(0, vclock=20)
        # served: fresh budget, back to DOWN and immediately respawnable
        assert sup.due_for_respawn(0, vclock=62)
        assert sup.meta[0].failures == 0

    def test_sustained_health_refills_the_restart_budget(self):
        sup = self.make(max_restarts=1, budget_reset_ops=5)
        sup.on_failure(0, "crash", vclock=0)
        sup.on_respawn_attempt(0)
        sup.on_healed(0)
        assert sup.meta[0].failures == 1
        for _ in range(5):
            sup.on_settled(0)
        assert sup.meta[0].failures == 0  # budget refilled
        # the next failure is failure 1 again, not a quarantine
        assert sup.on_failure(0, "crash", vclock=100) == DOWN

    def test_admin_down_is_never_auto_respawned(self):
        sup = self.make()
        assert sup.on_failure(0, "kill", vclock=0, admin=True) == ADMIN_DOWN
        assert not sup.due_for_respawn(0, vclock=10**9)

    def test_recoveries_record_mttr_for_auto_heals_only(self):
        sup = self.make()
        sup.on_failure(0, "crash", vclock=0)
        sup.on_respawn_attempt(0)
        sup.on_healed(0)
        assert len(sup.recoveries) == 1
        rec = sup.recoveries[0]
        assert rec["worker"] == 0 and rec["reason"] == "crash"
        assert rec["mttr_seconds"] >= 0.0
        assert sup.mttr_seconds == rec["mttr_seconds"]
        assert rec["spawn_s"] == 0.0 and rec["replay_s"] == 0.0
        # a manual restore_worker is not an auto-recovery
        sup.on_failure(0, "crash", vclock=5)
        sup.on_respawn_attempt(0)
        sup.on_healed(0, manual=True)
        assert len(sup.recoveries) == 1

    def test_status_shape(self):
        sup = self.make()
        sup.on_failure(0, "crash", vclock=0)
        st = sup.status()
        assert st["workers"]["0"]["state"] == DOWN
        assert st["workers"]["0"]["last_failure"] == "crash"
        assert st["auto_recoveries"] == 0 and st["mttr_seconds"] is None
        assert st["spawn_s"] is None and st["replay_s"] is None

    def test_heal_split_means(self):
        sup = self.make()
        for spawn_s, replay_s in ((0.3, 0.1), (0.5, 0.2)):
            sup.on_failure(0, "crash", vclock=0)
            sup.on_respawn_attempt(0)
            sup.on_healed(0, spawn_s=spawn_s, replay_s=replay_s)
        assert sup.mean("spawn_s") == 0.4
        assert sup.mean("replay_s") == 0.15
        st = sup.status()
        assert (st["spawn_s"], st["replay_s"]) == (0.4, 0.15)


# ---------------------------------------------------------------------------
# the seeded fault plan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_draw_is_deterministic_and_capped_by_incarnation(self):
        plan = FaultPlan(seed=7, rate=0.1, max_fault_incarnations=2)
        for w in range(4):
            for inc in range(2):
                assert plan.fault_for(w, inc) == plan.fault_for(w, inc)
        # incarnations at/past the cap always run clean: healing is
        # guaranteed, every crash loop terminates
        assert plan.fault_for(0, 2) is None
        assert plan.fault_for(3, 99) is None

    def test_kinds_and_fields(self):
        plan = FaultPlan(seed=3, rate=0.5, stall_seconds=0.125)
        seen = set()
        for w in range(40):
            fault = plan.fault_for(w, 0)
            if fault is None:
                continue
            seen.add(fault["kind"])
            assert fault["at_op"] >= 1
            if fault["kind"] == "stall":
                assert fault["seconds"] == 0.125
            if fault["kind"] in ("crash", "crash_late"):
                assert isinstance(fault["tear_wal"], bool)
        assert "crash" in seen and len(seen) >= 3

    def test_parse_spec_round_trip(self):
        plan = FaultPlan.parse("seed=11,rate=0.002,stall=0.25")
        assert plan.seed == 11 and plan.rate == 0.002
        assert plan.stall_seconds == 0.25
        assert FaultPlan.parse(plan.spec()) == plan

    def test_parse_script_forces_exact_faults(self):
        plan = FaultPlan.parse("rate=0,script=0.0.crash.30+1.2.stall.5")
        assert plan.fault_for(0, 0) == {"kind": "crash", "at_op": 30}
        assert plan.fault_for(1, 2) == {"kind": "stall", "at_op": 5}
        assert plan.fault_for(0, 1) is None  # rate 0: script only
        assert FaultPlan.parse(plan.spec()) == plan

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("seed")
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus_key=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("script=0.0.crash")  # missing at_op
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)

    def test_injector_counts_only_shard_ops(self):
        inj = FaultInjector.from_manifest(
            {"worker": 0, "incarnation": 0, "kind": "drop_response",
             "at_op": 2}
        )
        assert inj.suppress_response() is False  # op_count still 0
        inj.before_apply()
        assert inj.suppress_response() is False
        inj.before_apply()
        assert inj.suppress_response() is True
        assert inj.fired  # at most one fault per incarnation
        assert inj.suppress_response() is False
        assert FaultInjector.from_manifest(None) is None


# ---------------------------------------------------------------------------
# the durable WAL
# ---------------------------------------------------------------------------
class TestDurableWal:
    def test_append_mark_load_round_trip(self, tmp_path):
        wal = ShardWal.create(tmp_path, 3)
        wal.append(body(["submit", 0, 2, None]))
        wal.append(body(["advance", 1]))
        wal.mark_checkpoint("abc123")
        wal.append(body(["submit", 1, 1, 4]))
        image = load_wal(wal_path(tmp_path, 3))
        assert image.commands == [
            ["submit", 0, 2, None], ["advance", 1], ["submit", 1, 1, 4]
        ]
        # a version header, then [seq, *row] records and the marker
        assert wal.path.read_text().splitlines() == [
            '{"format":"repro.gateway.wal","version":2}',
            '[0,"submit",0,2,null]',
            '[1,"advance",1]',
            '{"mark":"abc123","seq":2}',
            '[2,"submit",1,1,4]',
        ]
        assert image.markers == [("abc123", 2)]
        assert not image.torn and image.dropped_lines == 0
        assert image.replay_floor("abc123") == 2
        assert image.replay_floor("other") == 0  # no match: full replay
        assert wal.fsyncs == 1  # only the marker is a durability point

    def test_torn_tail_is_dropped_and_repaired_on_next_append(
        self, tmp_path
    ):
        wal = ShardWal.create(tmp_path, 0)
        wal.append(body(["submit", 0, 1, None]))
        wal.tear_tail()
        # the default tear is a prefix of the record format on disk
        assert wal.path.read_bytes().endswith(b'\n[7,"submit",0,')
        image = load_wal(wal.path)
        assert image.torn and image.dropped_lines == 1
        assert len(image.commands) == 1  # the torn record never acked
        # the next append must terminate the partial line first, or it
        # would corrupt itself
        wal.append(body(["advance", 2]))
        image = load_wal(wal.path)
        assert image.commands == [["submit", 0, 1, None], ["advance", 2]]
        # all through the one handle the first append opened
        assert (wal.opens, wal.appends) == (1, 2)
        wal.close()
        wal.append(body(["drain"]))  # a closed WAL reopens, still appending
        assert len(load_wal(wal.path).commands) == 3 and wal.opens == 2

    def test_attach_schedules_newline_repair(self, tmp_path):
        wal = ShardWal.create(tmp_path, 0)
        wal.append(body(["submit", 0, 1, None]))
        tear_file_tail(wal.path)
        resumed = ShardWal.attach(
            tmp_path, 0, next_seq=len(load_wal(wal.path).commands)
        )
        resumed.append(body(["advance", 1]))
        image = load_wal(wal.path)
        assert image.commands == [["submit", 0, 1, None], ["advance", 1]]
        assert image.dropped_lines == 1 and not image.torn

    def test_seq_gap_is_a_hard_error(self, tmp_path):
        path = wal_path(tmp_path, 0)
        rows = [
            [0, "submit", 0, 1, None],
            [2, "advance", 1],  # seq 1 missing
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match="seq gap"):
            load_wal(path)

    @pytest.mark.parametrize(
        "line, version",
        [
            ('{"seq": 0, "cmd": {"op": "submit", "org": 0, "size": 1}}', 1),
            ('{"format": "repro.gateway.wal", "version": 3}', 3),
        ],
    )
    def test_other_wal_versions_are_refused_by_name(
        self, tmp_path, line, version
    ):
        # read as junk, a version-1 record would be dropped and the
        # shard would resume from an empty history
        wal = ShardWal.create(tmp_path, 0)
        wal.append(body(["advance", 1]))
        wal.close()
        with open(wal.path, "a") as f:
            f.write(line + "\n")
        with pytest.raises(ValueError) as exc:
            load_wal(wal.path)
        assert f"line 3: a version-{version} WAL record" in str(exc.value)

    def test_a_malformed_record_is_refused_by_line(self, tmp_path):
        path = wal_path(tmp_path, 0)
        path.write_text('[0,"advance",1]\n[1,"submit",0,2.5,null]\n')
        with pytest.raises(ValueError, match="line 2: a submit row is"):
            load_wal(path)

    def test_fresh_fleet_truncates_stale_history(self, tmp_path):
        wal = ShardWal.create(tmp_path, 0)
        wal.append(body(["submit", 0, 1, None]))
        fresh = ShardWal.create(tmp_path, 0, truncate=True)
        assert load_wal(fresh.path).commands == []

    def test_save_snapshot_is_atomic(self, tmp_path):
        # the checkpoint writer goes through tmp + fsync + rename: no
        # half-written snapshot is ever visible under the final name
        from repro.service import ClusterService
        from repro.service.snapshot import load_snapshot, save_snapshot

        svc = ClusterService([2, 1], "fifo")
        svc.submit(0, 3)
        target = tmp_path / "snap.json"
        save_snapshot(svc.snapshot(), target)
        assert load_snapshot(target)["content_hash"]
        assert list(tmp_path.glob("*.tmp")) == []  # no debris


# ---------------------------------------------------------------------------
# live fleets: automatic recovery
# ---------------------------------------------------------------------------
class TestAutoRecovery:
    #: Ceiling on mean detect -> respawn -> checkpoint restore -> WAL
    #: replay time per auto-healed crash; generous against a busy host
    #: (0.4-0.9 s under ``FAST`` on 2 cores).
    MTTR_CEILING_S = 5.0

    def run_chaos(self, plan, tmp_path, *, policy="fifo", sup=FAST,
                  n_tenants=8, events=500, **cfg):
        config = small_config(policy=policy, n_tenants=n_tenants, **cfg)
        spec = LoadSpec(n_events=events, n_releases=25, seed=4)
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=sup, fault_plan=plan
        ) as gw:
            report = run_loadgen(gw, spec)
            manual = gw.pool.restores
        assert manual == 0, "self-healing must not need restore_worker"
        return report

    @staticmethod
    def assert_heal_split(chaos):
        # each heal names its cold start and its replay, which fit
        # inside its detect-to-healed time
        assert chaos["spawn_s"] > 0 and chaos["replay_s"] >= 0
        for rec in chaos["recoveries"]:
            assert rec["spawn_s"] + rec["replay_s"] <= rec["mttr_seconds"]

    def test_scripted_crash_heals_bit_identically(self, tmp_path):
        plan = FaultPlan.parse("rate=0,script=0.0.crash.25")
        report = self.run_chaos(plan, tmp_path)
        assert report.verified is True
        assert report.chaos["auto_recoveries"] >= 1
        assert report.chaos["mttr_seconds"] <= self.MTTR_CEILING_S
        assert report.chaos["quarantines"] == 0
        self.assert_heal_split(report.chaos)

    def test_crash_heals_for_the_kernel_ref_engine(self, tmp_path):
        plan = FaultPlan.parse("rate=0,script=1.0.crash.20")
        report = self.run_chaos(
            plan, tmp_path, policy="ref", horizon=300, events=400
        )
        assert report.verified is True
        assert report.chaos["auto_recoveries"] >= 1

    def test_drop_response_is_detected_as_a_failure(self, tmp_path):
        # the worker applies the command but never answers: a positional
        # desync only the pool's deadline/desync detection can catch
        plan = FaultPlan.parse("rate=0,script=0.0.drop_response.25")
        report = self.run_chaos(plan, tmp_path)
        assert report.verified is True
        assert report.chaos["auto_recoveries"] >= 1
        reasons = {r["reason"] for r in report.chaos["recoveries"]}
        assert any("deadline" in r or "desync" in r for r in reasons)

    def test_stall_is_detected_by_the_response_deadline(self, tmp_path):
        plan = FaultPlan.parse("rate=0,stall=1.0,script=0.0.stall.25")
        report = self.run_chaos(plan, tmp_path)
        assert report.verified is True
        assert report.chaos["auto_recoveries"] >= 1
        # the worker was alive-but-silent: only a deadline can catch it
        assert any(
            "deadline" in (r["reason"] or "")
            or "timeout" in (r["reason"] or "")
            for r in report.chaos["recoveries"]
        )

    def test_torn_checkpoint_keeps_the_previous_checkpoint(self, tmp_path):
        # the injected torn checkpoint write must fail in-band (no
        # rename), the shard must keep its full WAL, and a subsequent
        # kill/restore must recover from the surviving state
        plan = FaultPlan.parse("rate=0,script=0.0.torn_checkpoint.1")
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=500, n_releases=25, seed=4)
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=FAST, fault_plan=plan
        ) as gw:
            report = run_loadgen(
                gw, spec, snapshot_at_release=8, kill_worker_at_release=16
            )
            assert gw.pool.restores == 1
            # exactly one of worker 0's shards failed its checkpoint and
            # therefore kept its whole WAL un-acked
            torn = [
                s for s in config.worker_shards(0)
                if s not in gw.pool.checkpointed
            ]
            assert len(torn) == 1
        assert report.verified is True

    def test_torn_wal_tail_replays_bit_identically(self, tmp_path):
        plan = FaultPlan.scripted(
            {(0, 0): {"kind": "crash", "at_op": 25, "tear_wal": True}}
        )
        report = self.run_chaos(plan, tmp_path)
        assert report.verified is True
        assert report.chaos["wal_tears"] >= 1

    def test_seeded_chaos_heals_at_scale(self, tmp_path):
        # the CI smoke plan: seeded, unscripted, multiple recoveries
        plan = FaultPlan.parse("seed=11,rate=0.002")
        report = self.run_chaos(
            plan, tmp_path, n_tenants=16, events=2000,
            n_workers=4, n_shards=8,
        )
        assert report.verified is True
        assert report.chaos["auto_recoveries"] >= 1
        assert report.chaos["mttr_seconds"] <= self.MTTR_CEILING_S
        self.assert_heal_split(report.chaos)

    def test_lost_inflight_keeps_a_count_and_the_newest_three(self):
        # every failure used to append every lost request forever; the
        # pool now keeps a running count and the newest three per worker
        config = small_config(n_tenants=8)
        shard = config.worker_shards(0)[0]
        with Gateway(config) as gw:
            for kill in range(1, 4):
                for _ in range(5):  # pipelined: unanswered at the kill
                    gw.pool.shard_cmd(shard, ["submit", 0, 1, None])
                assert gw.kill_worker(0) == 5
                row = gw.pool.lost_inflight[0]
                assert row["count"] == 5 * kill
                assert len(row["recent"]) == 3
                gw.restore_worker(0)
            lost = gw.status()["supervisor"]["lost_inflight"]
            assert lost == {"0": {
                "count": 15, "recent": list(gw.pool.lost_inflight[0]["recent"]),
            }}
            assert [r["op"] for r in lost["0"]["recent"]] == ["submit"] * 3

    def test_lost_inflight_is_surfaced_in_status(self, tmp_path):
        plan = FaultPlan.parse("rate=0,script=0.0.crash.10")
        config = small_config(n_tenants=8)
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=FAST, fault_plan=plan
        ) as gw:
            run_loadgen(gw, LoadSpec(n_events=300, n_releases=15, seed=4))
            st = gw.status()
            assert st["supervisor"]["auto_recoveries"] >= 1
            assert st["supervisor"]["spawn_s"] > 0
            lost = st["supervisor"]["lost_inflight"]
            assert lost and all(
                row["count"] >= 1 and "op" in row["recent"][0]
                for row in lost.values()
            )


# ---------------------------------------------------------------------------
# graceful degradation: typed refusals, park-and-drain, quarantine
# ---------------------------------------------------------------------------
class TestDegradation:
    def crash_and_detect(self, gw, config, tenant):
        """Submit to ``tenant`` until its scripted worker crash is
        detected; returns (shard, worker)."""
        import time as _time

        shard, worker = victim_for(config, tenant)
        deadline = _time.monotonic() + 10.0
        while gw.pool.supervisor.state(worker) == UP:
            gw.submit(tenant, 1)
            gw.pool.tick()
            assert _time.monotonic() < deadline, "crash never detected"
            _time.sleep(0.005)
        return shard, worker

    def test_down_shard_parks_submits_and_drains_in_order(self, tmp_path):
        # long backoff: the worker stays DOWN while we assert parking
        sup = SupervisorPolicy(
            heartbeat_timeout_s=0.4, ping_interval_s=0.1,
            backoff_base_s=30.0, backoff_base_v=1e9,
        )
        plan = FaultPlan.parse("rate=0,script=0.0.crash.5")
        config = small_config(n_tenants=8)
        tenant = next(
            t for t, (s, _) in config.routes.items()
            if worker_of(s, config.n_workers) == 0
        )
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=sup, fault_plan=plan
        ) as gw:
            shard, worker = self.crash_and_detect(gw, config, tenant)
            # the worker is down but parkable: submits still ack
            resp = gw.submit(tenant, 2)
            assert resp["ok"] and resp.get("parked") is True
            assert gw.pool.parked[shard] >= 1
            before = gw.pool.parked[shard]
            gw.submit(tenant, 3)
            assert gw.pool.parked[shard] == before + 1
            # make the respawn due now, heal, and verify the full stream
            gw.pool.supervisor.meta[worker].next_attempt_wall = 0.0
            gw.pool.heal_shard(shard)
            assert gw.pool.supervisor.state(worker) == UP
            assert gw.pool.parked[shard] == 0
            gw.drain()
            digests = gw.shard_digests()
        # rebuild the accepted stream: every submit in this test was
        # accepted (parked ones included), in submission order
        n = gw.n_submitted
        stream = [(0, tenant, 1)] * (n - 2) + [(0, tenant, 2),
                                               (0, tenant, 3)]
        assert digests == verify_against_batch(config, stream)

    def test_quarantined_shard_refuses_without_charging(self, tmp_path):
        # max_restarts=0: the first detected failure quarantines at once
        sup = SupervisorPolicy(
            heartbeat_timeout_s=0.4, ping_interval_s=0.1, max_restarts=0,
            quarantine_cooldown_s=1000.0, quarantine_cooldown_v=1e9,
        )
        plan = FaultPlan.parse("rate=0,script=0.0.crash.3")
        config = small_config(n_tenants=8, rate=100.0, credits=10_000)
        tenant = next(
            t for t, (s, _) in config.routes.items()
            if worker_of(s, config.n_workers) == 0
        )
        sibling = next(
            t for t, (s, _) in config.routes.items()
            if worker_of(s, config.n_workers) != 0
        )
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=sup, fault_plan=plan
        ) as gw:
            shard, worker = self.crash_and_detect(gw, config, tenant)
            assert gw.pool.supervisor.state(worker) == QUARANTINED
            acct = gw.admission.account(tenant)
            tokens, credits = acct.bucket.tokens, acct.credits
            rejected_before = gw.n_rejected
            resp = gw.submit(tenant, 4)
            assert resp == {
                "ok": False, "tenant": tenant, "shard": shard,
                "error": resp["error"], "code": "shard_unavailable",
            }
            # a typed refusal never charges -- same contract as
            # rate_limited
            assert acct.bucket.tokens == tokens
            assert acct.credits == credits
            assert gw.n_rejected == rejected_before + 1
            by_code = gw.admission.status()[tenant]["rejected_by_code"]
            assert by_code.get("shard_unavailable", 0) >= 1
            # deterministic: the same submit refuses identically
            again = gw.submit(tenant, 4)
            assert again["code"] == "shard_unavailable"
            # sibling shards are untouched: their submits apply and the
            # final digests match batch over the sibling's own stream
            n_sib = 6
            for _ in range(n_sib):
                assert gw.submit(sibling, 1)["ok"]
            sib_shard, _ = config.routes[sibling]
            gw.pool.call(sib_shard, ["drain"])
            resp = gw.pool.call(sib_shard, ["snapshot"], log=False)
            digest = resp["snapshot"]["schedule_digest"]
        expected = verify_against_batch(
            config, [(0, sibling, 1)] * n_sib
        )
        assert digest == expected[sib_shard]

    def test_rate_limited_and_shard_unavailable_both_leave_no_charge(
        self,
    ):
        config = small_config(n_tenants=4, rate=1.0, burst=1.0)
        with Gateway(config) as gw:
            t = config.tenants[0].name
            assert gw.submit(t, 1)["ok"]
            acct = gw.admission.account(t)
            tokens = acct.bucket.tokens
            resp = gw.submit(t, 1)
            assert resp["code"] == "rate_limited"
            assert acct.bucket.tokens == tokens

    def test_observation_on_down_shard_is_refused_in_band(self, tmp_path):
        from repro.gateway import ShardUnavailable

        sup = SupervisorPolicy(
            heartbeat_timeout_s=0.4, ping_interval_s=0.1,
            backoff_base_s=30.0, backoff_base_v=1e9,
        )
        plan = FaultPlan.parse("rate=0,script=0.0.crash.5")
        config = small_config(n_tenants=8)
        tenant = next(
            t for t, (s, _) in config.routes.items()
            if worker_of(s, config.n_workers) == 0
        )
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=sup, fault_plan=plan
        ) as gw:
            shard, worker = self.crash_and_detect(gw, config, tenant)
            with pytest.raises(ShardUnavailable):
                gw.pool.call(shard, ["status"], log=False)
            gw.pool.supervisor.meta[worker].next_attempt_wall = 0.0
            gw.pool.heal_shard(shard)
            assert gw.pool.call(shard, ["status"], log=False)["ok"]

    def test_park_limit_overflow_is_refused(self, tmp_path):
        sup = SupervisorPolicy(
            heartbeat_timeout_s=0.4, ping_interval_s=0.1,
            backoff_base_s=30.0, backoff_base_v=1e9, park_limit=2,
        )
        plan = FaultPlan.parse("rate=0,script=0.0.crash.5")
        config = small_config(n_tenants=8)
        tenant = next(
            t for t, (s, _) in config.routes.items()
            if worker_of(s, config.n_workers) == 0
        )
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=sup, fault_plan=plan
        ) as gw:
            shard, worker = self.crash_and_detect(gw, config, tenant)
            # fill the park buffer (detection itself may have parked the
            # triggering submit already)
            while gw.pool.parked.get(shard, 0) < 2:
                resp = gw.submit(tenant, 1)
                assert resp["ok"]
            resp = gw.submit(tenant, 1)
            assert not resp["ok"]
            assert resp["code"] == "shard_unavailable"
            assert "park buffer full" in resp["error"]
            gw.pool.supervisor.meta[worker].next_attempt_wall = 0.0
            gw.pool.heal_shard(shard)


# ---------------------------------------------------------------------------
# cold start: launch every worker, then wait; a failed start strands none
# ---------------------------------------------------------------------------
class TestColdStart:
    @pytest.fixture
    def popens(self, monkeypatch):
        """Every worker process the pool creates, in launch order."""
        created = []

        class Recording(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        return created

    @staticmethod
    def refuse_worker(monkeypatch, worker):
        """Give ``worker`` a shard policy ``build_shard`` refuses."""
        manifest = ShardPool._manifest

        def refused(self, w, restore, incarnation=0):
            out = manifest(self, w, restore, incarnation)
            if w == worker:
                # built, not restored: a checkpoint would not read it
                out["restore"] = {}
                for spec in out["shards"].values():
                    spec["policy"] = "no_such_policy"
            return out

        monkeypatch.setattr(ShardPool, "_manifest", refused)

    def test_every_worker_is_launched_before_any_hello(
        self, monkeypatch, popens
    ):
        hellos = []
        await_hello = _WorkerHandle.await_hello

        def recorded(handle):
            hellos.append(len(popens))
            return await_hello(handle)

        monkeypatch.setattr(_WorkerHandle, "await_hello", recorded)
        with Gateway(small_config(n_workers=4, n_shards=4)) as gw:
            assert sorted(gw.pool.workers) == [0, 1, 2, 3]
        assert hellos == [4, 4, 4, 4]

    def test_failed_start_reaps_every_worker(self, monkeypatch, popens):
        self.refuse_worker(monkeypatch, 1)
        gw = Gateway(small_config())
        with pytest.raises(WorkerDied, match="worker 1 failed to start"):
            gw.start()
        assert len(popens) == 2
        assert all(p.returncode is not None for p in popens)
        assert gw.pool.workers == {}

    def test_failed_resume_reaps_every_worker(
        self, tmp_path, monkeypatch, popens
    ):
        config = small_config()
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            run_loadgen(gw, LoadSpec(n_events=100, n_releases=5, seed=5))
        self.refuse_worker(monkeypatch, 1)
        del popens[:]
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            with pytest.raises(WorkerDied, match="worker 1 failed to start"):
                pool.resume_from_disk()
        finally:
            pool.close()
        assert len(popens) == 2
        assert all(p.returncode is not None for p in popens)


# ---------------------------------------------------------------------------
# the gateway process itself dies: resume from durable state
# ---------------------------------------------------------------------------
class TestGatewayResume:
    def run_stream(self, config, tmp_path, spec, snapshot_at=None):
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            report = run_loadgen(
                gw, spec, snapshot_at_release=snapshot_at
            )
        return report

    def test_resume_from_disk_is_bit_identical(self, tmp_path):
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=400, n_releases=20, seed=5)
        report = self.run_stream(config, tmp_path, spec, snapshot_at=10)
        assert report.verified is True
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            pool.resume_from_disk()
            assert pool.shard_digests() == report.shard_digests
        finally:
            pool.close()

    @pytest.mark.parametrize(
        "damage", [None, "corrupt_body", "version_1"]
    )
    def test_resume_replays_the_full_wal_past_a_refused_checkpoint(
        self, tmp_path, damage
    ):
        # a fsynced marker names the on-disk checkpoint's recorded hash,
        # but the marker proves the write, not that this build can read
        # the file: a checkpoint check_snapshot refuses (body edited
        # under its hash; the version-1 layout) must not be handed to a
        # worker -- the WAL is complete from genesis
        from repro.gateway.worker import shard_snapshot_path
        from repro.service.snapshot import load_snapshot

        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=300, n_releases=15, seed=5)
        report = self.run_stream(config, tmp_path, spec, snapshot_at=8)
        shard = config.shard_ids()[0]
        ckpt = shard_snapshot_path(tmp_path, shard)
        payload = load_snapshot(ckpt)  # the shutdown checkpoint
        if damage == "corrupt_body":
            payload["journal"][0][-1] += 1
        elif damage == "version_1":
            as_version_1(payload)
        ckpt.write_text(json.dumps(payload))
        # it covers every command, and a marker at the tail says so
        n_commands = len(load_wal(wal_path(tmp_path, shard)).commands)
        wal = ShardWal.attach(tmp_path, shard, next_seq=n_commands)
        wal.mark_checkpoint(payload["content_hash"])
        wal.close()
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            replayed = pool.resume_from_disk()
            # the control: an intact checkpoint under that marker is used
            assert replayed[shard] == (n_commands if damage else 0)
            assert pool.shard_digests() == report.shard_digests
        finally:
            pool.close()

    def test_resume_refuses_a_version_1_wal(self, tmp_path):
        # a WAL this build cannot read is a hard stop, never a fleet
        # resumed from an empty history
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=200, n_releases=10, seed=5)
        self.run_stream(config, tmp_path, spec)
        shard = config.shard_ids()[-1]
        path = wal_path(tmp_path, shard)
        rows = load_wal(path).commands
        assert rows  # the shard has a history to lose
        path.write_text("".join(
            json.dumps({"seq": n, "cmd": {"op": row[0]}}) + "\n"
            for n, row in enumerate(rows)
        ))
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            with pytest.raises(ValueError, match="version-1 WAL record"):
                pool.resume_from_disk()
            assert pool.workers == {}
        finally:
            pool.close()

    def test_resume_tolerates_a_torn_wal_tail(self, tmp_path):
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=400, n_releases=20, seed=5)
        report = self.run_stream(config, tmp_path, spec, snapshot_at=10)
        victim_shard = config.shard_ids()[-1]
        tear_file_tail(wal_path(tmp_path, victim_shard))
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            pool.resume_from_disk()
            assert pool.wal_torn_repairs == 1
            assert pool.shard_digests() == report.shard_digests
        finally:
            pool.close()

    def test_resume_distrusts_a_checkpoint_without_a_marker(self, tmp_path):
        # kill the marker line: resume must fall back to full genesis
        # replay instead of trusting an unproven checkpoint
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=300, n_releases=15, seed=5)
        report = self.run_stream(config, tmp_path, spec, snapshot_at=8)
        shard = config.shard_ids()[0]
        path = wal_path(tmp_path, shard)
        kept = [
            line for line in path.read_text().splitlines()
            if "\"mark\"" not in line
        ]
        path.write_text("".join(line + "\n" for line in kept))
        pool = ShardPool(config, snapshot_dir=tmp_path)
        try:
            replayed = pool.resume_from_disk()
            image = load_wal(path)
            assert replayed[shard] == len(image.commands)  # full replay
            assert pool.shard_digests() == report.shard_digests
        finally:
            pool.close()

    def test_clean_close_acks_the_shutdown_checkpoints(self, tmp_path):
        # every worker checkpoints its shards as it shuts down; close()
        # acks them the way snapshot_all does (WAL marker included), so a
        # resume starts from them instead of replaying from genesis
        config = small_config(n_tenants=8, n_shards=2)
        clock = 0

        def feed(pool, n):
            nonlocal clock
            for i in range(n):
                clock += i % 10 == 9
                for s in config.shard_ids():
                    row = (["advance", clock] if i % 10 == 9
                           else ["submit", 0, 1 + i % 3, None])
                    pool.shard_cmd(s, row)

        pool = ShardPool(config, snapshot_dir=tmp_path).start()
        try:
            feed(pool, 100)
            pool.snapshot_all()
            feed(pool, 50)
            digests = pool.shard_digests()
        finally:
            pool.close()
        resumed = ShardPool(config, snapshot_dir=tmp_path)
        try:
            assert resumed.resume_from_disk() == {0: 0, 1: 0}
            assert resumed.checkpointed == {0, 1}
            assert resumed.shard_digests() == digests
        finally:
            resumed.close()

    def test_admin_kill_still_raises_and_requires_manual_restore(
        self, tmp_path
    ):
        # the legacy operator contract survives the supervisor: an
        # explicit kill is never auto-respawned
        config = small_config(n_tenants=8)
        with Gateway(config, snapshot_dir=tmp_path) as gw:
            gw.submit("t0", 1)
            gw.pool.barrier()
            shard, worker = victim_for(config, "t0")
            gw.kill_worker(worker)
            gw.pool.tick()
            assert gw.pool.supervisor.state(worker) == ADMIN_DOWN
            with pytest.raises(WorkerDied):
                gw.pool.call(shard, ["status"])
            gw.restore_worker(worker)
            assert gw.pool.supervisor.state(worker) == UP
            resp = gw.pool.call(shard, ["status"], log=False)
            assert resp["ok"] and resp["jobs_submitted"] == 1


# ---------------------------------------------------------------------------
# loadgen + CLI surface
# ---------------------------------------------------------------------------
class TestChaosSurface:
    def test_report_chaos_block_only_with_a_plan(self, tmp_path):
        config = small_config(n_tenants=8)
        spec = LoadSpec(n_events=200, n_releases=10, seed=6)
        with Gateway(config) as gw:
            clean = run_loadgen(gw, spec)
        assert clean.chaos is None
        plan = FaultPlan.parse("rate=0,script=0.0.crash.15")
        with Gateway(
            config, snapshot_dir=tmp_path, supervisor=FAST,
            fault_plan=plan,
        ) as gw:
            chaotic = run_loadgen(gw, spec)
        assert chaotic.chaos is not None
        assert chaotic.chaos["plan"] == plan.spec()
        assert "chaos plan" in chaotic.summary()
        assert "auto recoveries" in chaotic.summary()

    def test_supervisor_block_in_gateway_status(self):
        config = small_config(n_tenants=4)
        with Gateway(config) as gw:
            st = gw.status()
            assert st["degraded"] is False
            sup = st["supervisor"]
            assert sup["workers"]["0"]["state"] == UP
            assert sup["auto_recoveries"] == 0
            assert sup["spawn_s"] is None and sup["replay_s"] is None
