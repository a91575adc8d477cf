"""The six workloads: input laws, closed-loop drivers, reference checks.

Everything here reaches the system through ``repro.api`` (plus
``schedule_digest``), so a refactor behind that surface cannot break it.
The input laws are restated here on purpose: ``repro.bench`` and
``repro.gateway.loadgen`` hold the originals and are due for a rewrite.

A serving workload is a list of ticks ``(t, rows)``.  The driver is one
closed-loop client on a virtual clock: per tick it submits the tick's
rows, advances every shard to ``t`` and waits until all have applied it.
The first ticks (at least ``WARM_JOBS`` jobs) run untimed so plan caches
fill in every process; they stay part of the verified schedule.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from contextlib import nullcontext
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from repro import api
from repro.service.snapshot import schedule_digest

WARM_JOBS = 200
CHURN_EVERY = 150  # ticks between membership ops
clock = time.perf_counter


def digest_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# input laws
# ----------------------------------------------------------------------
def bursty_rows(k: int, n_jobs: int, seed: int) -> "list[tuple[int, int, int]]":
    """``(release, org, size)`` in canonical ``(release, org)`` order:
    inter-arrival U{0,1,2}, uniform org, size U{1..5}."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 3, size=n_jobs)
    orgs = rng.integers(0, k, size=n_jobs)
    sizes = rng.integers(1, 6, size=n_jobs)
    rows = zip(np.cumsum(steps).tolist(), orgs.tolist(), sizes.tolist())
    return sorted(rows, key=lambda r: (r[0], r[1]))


def storm_rows(
    n_tenants: int, n_submits: int, n_ticks: int, seed: int
) -> "list[tuple[int, int, int]]":
    """``(release, tenant index, size)`` sorted by ``(release, tenant)``:
    release U{0..n_ticks-1}, uniform tenant, size U{1..6}."""
    rng = random.Random(seed)
    rows = [
        (rng.randrange(n_ticks), rng.randrange(n_tenants), rng.randint(1, 6))
        for _ in range(n_submits)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def to_ticks(rows) -> "list[tuple[int, list[tuple]]]":
    return [
        (t, [r[1:] for r in group])
        for t, group in groupby(rows, key=lambda r: r[0])
    ]


def batch_workload(machines, rows) -> "api.Workload":
    """The batch twin of a row stream (``rows`` in canonical order, so the
    auto-assigned job ids equal the service's sequential ones)."""
    next_index = [0] * len(machines)
    jobs = []
    for release, org, size in rows:
        jobs.append(api.Job(release, org, next_index[org], size))
        next_index[org] += 1
    orgs = [api.Organization(i, m) for i, m in enumerate(machines)]
    return api.Workload(orgs, jobs)


def n_warm_ticks(ticks) -> int:
    jobs = 0
    for i, (_, rows) in enumerate(ticks):
        jobs += len(rows)
        if jobs >= WARM_JOBS:
            return i + 1
    return len(ticks)


# ----------------------------------------------------------------------
# targets: what the closed-loop client talks to
# ----------------------------------------------------------------------
class Target:
    """What every target carries; ``counters`` are read after the run."""

    spans = ("service.submit", "service.advance", "service.drain")
    failed = 0  # ops refused or failed shard-side
    wal = False  # a gateway with a snapshot_dir
    spawn_s = 0.0
    close_s = 0.0

    def close(self) -> None:
        pass


class ServiceTarget(Target):
    """One in-process ``ClusterService``; rows are ``(org, size)``."""

    snapshot_bytes = 0
    restored_ops = 0

    def __init__(self, machines, policy: str) -> None:
        self.svc = api.ClusterService(machines, policy, seed=0)

    def submit(self, t, org, size) -> None:
        self.svc.submit(org, size, t)

    def advance(self, t) -> None:
        self.svc.advance(t)

    def finish(self) -> None:
        self.svc.drain()

    def digest(self) -> str:
        return schedule_digest(self.svc.schedule())

    def counters(self) -> dict:
        ingest = self.svc.status()["ingest"]
        return {
            "flushes": ingest["flushes"],
            "jobs_flushed": ingest["jobs_flushed"],
            "journal_ops": len(self.svc.journal),
            "snapshot_bytes": self.snapshot_bytes,
            "restored_ops": self.restored_ops,
        }


class ShardsTarget(Target):
    """The shards of a gateway config as in-process services, no gateway;
    rows are ``(tenant index, size)``."""

    def __init__(self, config: "api.GatewayConfig") -> None:
        self.shards = {
            s: api.ClusterService(
                config.shard_machine_counts(s),
                config.policy,
                seed=config.shard_seed(s),
            )
            for s in config.shard_ids()
        }
        route = [config.routes[t.name] for t in config.tenants]
        self.route = [(self.shards[s].submit, org) for s, org in route]

    def submit(self, t, tenant, size) -> None:
        submit, org = self.route[tenant]
        submit(org, size, t)

    def advance(self, t) -> None:
        for svc in self.shards.values():
            svc.advance(t)

    def finish(self) -> None:
        for svc in self.shards.values():
            svc.drain()

    def digest(self) -> str:
        return digest_of(
            {s: schedule_digest(v.schedule()) for s, v in self.shards.items()}
        )

    def counters(self) -> dict:
        ingest = [v.status()["ingest"] for v in self.shards.values()]
        return {
            "flushes": sum(i["flushes"] for i in ingest),
            "jobs_flushed": sum(i["jobs_flushed"] for i in ingest),
            "journal_ops": sum(len(v.journal) for v in self.shards.values()),
        }


class GatewayTarget(Target):
    """A started ``Gateway`` with its worker processes; rows are
    ``(tenant index, size)``.  ``wait=False`` pipelines the advance."""

    spans = ("gateway.submit", "gateway.barrier", "gateway.drain")

    def __init__(self, config, snapshot_dir, wait: bool = True) -> None:
        self.names = [t.name for t in config.tenants]
        self.wait = wait
        self.wal = snapshot_dir is not None
        t0 = clock()
        self.gw = api.Gateway(config, snapshot_dir=snapshot_dir).start()
        self.spawn_s = clock() - t0

    def submit(self, t, tenant, size) -> None:
        if not self.gw.submit(self.names[tenant], size, t)["ok"]:
            self.failed += 1

    def advance(self, t) -> None:
        self.gw.advance(t, wait=self.wait)

    def finish(self) -> None:
        if not self.gw.drain()["ok"]:
            self.failed += 1
        self.failed += len(self.gw.forward_errors)

    def digest(self) -> str:
        return digest_of(self.gw.shard_digests())

    def counters(self) -> dict:
        status = self.gw.status()
        # the durable WALs sit behind the public surface; gone is fine
        wals = getattr(getattr(self.gw, "pool", None), "dwal", None)
        return {
            "flushes": status["ingest_flushes"],
            "jobs_flushed": status["jobs_flushed"],
            "wal_fsyncs": (
                None if wals is None
                else sum(w.fsyncs for w in wals.values())
            ),
        }

    def close(self) -> None:
        t0 = clock()
        self.gw.close()
        self.close_s = clock() - t0


# ----------------------------------------------------------------------
# the closed-loop driver
# ----------------------------------------------------------------------
def drive(target, ticks, hook=None, rec=None, first_tick=0):
    """Run ``ticks`` against ``target``.  Returns each tick's seconds from
    its first submit to all its decisions applied, the seconds between
    each tick's end and the next one's start (the hook's), and the ops the
    hook made.  ``hook(i)`` runs after tick ``i`` outside the tick's time
    and returns how many ops it made.  With a recorder every call into
    the target becomes a span."""
    submit, advance = target.submit, target.advance
    tick_s = []
    gap_s = []
    n_hook_ops = 0
    if rec is None:
        for i, (t, rows) in enumerate(ticks, first_tick):
            t0 = clock()
            for row in rows:
                submit(t, *row)
            advance(t)
            t1 = clock()
            tick_s.append(t1 - t0)
            if hook is not None:
                n_hook_ops += hook(i)
            gap_s.append(clock() - t1)
    else:
        submit_name, advance_name, _ = target.spans
        add = rec.add
        for i, (t, rows) in enumerate(ticks, first_tick):
            tick = rec.open("tick", i)
            for row in rows:
                s = clock()
                submit(t, *row)
                add(submit_name, s, clock(), tick, i)
            s = clock()
            advance(t)
            add(advance_name, s, clock(), tick, i)
            tick_s.append(rec.close(tick))
            t1 = clock()
            if hook is not None:
                n_hook_ops += hook(i)
            gap_s.append(clock() - t1)
    return tick_s, gap_s, n_hook_ops


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Serving:
    """Base of the five serving workloads."""

    name = ""
    why = ""
    layer = "service"  # the outermost layer the workload drives
    min_cores = 1
    profile_ticks = 500  # how many ticks the call counter watches
    #: other ways to run the same stream, each one rung of the depth
    #: ladder or one probe: "calls" counts calls over the first ticks
    variants: "tuple[str, ...]" = ("calls",)
    probes: "tuple[str, ...]" = ()  # isolated probes, see probes.PROBES
    sizes: "dict[str, dict]" = {}

    def rows(self, size: dict, seed: int) -> list:
        """The stream: ``(release, ...)`` rows in canonical order."""
        raise NotImplementedError

    def open(self, inp: dict, workdir: Path, variant: str = ""):
        raise NotImplementedError

    def inputs(self, seed: int, quick: bool) -> dict:
        size = self.sizes["quick" if quick else "full"]
        rows = self.rows(size, seed)
        return {"rows": rows, "ticks": to_ticks(rows), "sizes": size}

    def reference(self, inp: dict) -> str:
        return self.batch_digest(inp)

    def hook(self, target, inp, workdir, rec):
        return None

    def run(self, inp: dict, workdir: Path, rec=None, variant: str = "",
            counter=None) -> dict:
        """One pass: set up, warm up untimed, time the rest."""
        ticks = inp["ticks"]
        warm = n_warm_ticks(ticks)
        if counter is not None:
            ticks = ticks[: warm + self.profile_ticks]
        target = self.open(inp, workdir, variant)
        try:
            hook = self.hook(target, inp, workdir, rec)
            drive(target, ticks[:warm], hook)
            cpu0 = time.process_time()
            started = clock()
            with counter or nullcontext():
                tick_s, gap_s, hook_ops = drive(
                    target, ticks[warm:], hook, rec, warm
                )
            s = clock()
            target.finish()
            ended = clock()
            gap_s.append(ended - s)  # the final drain
            cpu1 = time.process_time()
            if rec is not None:
                rec.add(target.spans[2], s, ended, None, len(ticks))
            # ops: submits + ticks + hook ops + the final drain
            n_events = (
                sum(len(rows) for _, rows in ticks[warm:])
                + len(tick_s) + hook_ops + 1
            )
            out = {
                "n_events": n_events,
                "failed": target.failed,
                "wall_s": ended - started,
                "started": started,
                "tick_ms": [x * 1e3 for x in tick_s],
                "gap_ms": [x * 1e3 for x in gap_s],
                "frontdoor_cpu_s": cpu1 - cpu0,
                "counters": target.counters(),
                "digest": target.digest() if counter is None else None,
                "spawn_s": target.spawn_s,
            }
        finally:
            target.close()
        out["close_s"] = target.close_s
        return out


class ServeRefK8(Serving):
    name = "serve_ref_k8"
    why = ("one in-process REF k=8 service: policy body and service "
           "stepping dominate, long enough to show cost growing with history")
    machines = (2, 1, 1, 1, 1, 1, 1, 1)
    policy = "ref"
    variants = ("fifo", "calls")
    probes = ("engine", "kernel", "phi", "batch")
    sizes = {"full": {"n_jobs": 1800}, "quick": {"n_jobs": 260}}

    def rows(self, size, seed):
        return bursty_rows(len(self.machines), size["n_jobs"], seed)

    def open(self, inp, workdir, variant=""):
        """Variant "fifo" serves the same stream under the FIFO policy."""
        return ServiceTarget(
            self.machines, "fifo" if variant == "fifo" else self.policy
        )

    def batch_workloads(self, inp):
        return [batch_workload(self.machines, inp["rows"])]

    def batch_digest(self, inp):
        (wl,) = self.batch_workloads(inp)
        return schedule_digest(api.build_scheduler(self.policy).run(wl).schedule)


class ServeChurnCkptK5(ServeRefK8):
    name = "serve_churn_ckpt_k5"
    why = ("the service layer used for writes: membership churn plus "
           "snapshot/save/load/restore cycles; a cheaper journal append "
           "that makes snapshot or replay dearer shows here")
    machines = (3, 2, 2, 1, 1)
    policy = "directcontr"
    variants = ("calls",)
    probes = ()
    sizes = {
        "full": {"n_jobs": 6000, "ckpt_every": 600},
        "quick": {"n_jobs": 1500, "ckpt_every": 400},
    }

    def hook(self, target, inp, workdir, rec, checkpoints=True):
        """Every ``CHURN_EVERY`` ticks one membership op, cycling
        add_machines / join_org / add_machines on the joiner / leave_org;
        every ``ckpt_every`` ticks a full checkpoint cycle."""
        ckpt_every = inp["sizes"]["ckpt_every"]
        path = Path(workdir or ".") / "churn.json"
        state = {"ops": 0, "joiner": None}

        def membership(svc):
            step = state["ops"] % 4
            if step == 0:
                svc.add_machines((state["ops"] // 4) % len(self.machines), 1)
            elif step == 1:
                state["joiner"] = svc.join_org(1)
            elif step == 2:
                svc.add_machines(state["joiner"], 1)
            else:
                svc.leave_org(state["joiner"])
            state["ops"] += 1

        def timed(name, i, fn, *args):
            if rec is None:
                return fn(*args)
            s = clock()
            out = fn(*args)
            rec.add(name, s, clock(), None, i)
            return out

        def after_tick(i):
            ops = 0
            if (i + 1) % CHURN_EVERY == 0:
                timed("service.membership", i, membership, target.svc)
                ops += 1
            if checkpoints and (i + 1) % ckpt_every == 0:
                payload = timed("service.snapshot", i, target.svc.snapshot)
                timed("service.save", i, api.save_snapshot, payload, path)
                payload = timed("service.load", i, api.load_snapshot, path)
                target.svc = timed(
                    "service.restore", i, api.ClusterService.restore, payload
                )
                target.snapshot_bytes = path.stat().st_size
                target.restored_ops = len(payload["journal"])
                ops += 1
            return ops

        return after_tick

    def reference(self, inp):
        """The same op sequence without checkpoints."""
        target = self.open(inp, None)
        drive(target, inp["ticks"], self.hook(target, inp, None, None, False))
        target.finish()
        return target.digest()


class ServeFifoK64(Serving):
    name = "serve_fifo_k64"
    why = ("8 FIFO shards in-process: the policy does almost nothing, so "
           "service ingest and journal are the work; bypass workload for "
           "any policy-body or gateway optimisation")
    profile_ticks = 50
    probes = ("engine", "batch")
    config_args = {"n_tenants": 64, "n_shards": 8, "n_workers": 2,
                   "policy": "fifo"}
    sizes = {
        "full": {"n_submits": 40_000, "n_ticks": 100},
        "quick": {"n_submits": 8000, "n_ticks": 20},
    }

    def config(self):
        args = dict(self.config_args)
        return api.GatewayConfig.uniform(args.pop("n_tenants"), **args)

    def rows(self, size, seed):
        return storm_rows(
            self.config_args["n_tenants"], size["n_submits"],
            size["n_ticks"], seed,
        )

    def open(self, inp, workdir, variant=""):
        return ShardsTarget(self.config())

    def batch_workloads(self, inp):
        """Each shard's batch twin; per-shard restriction of the stream
        order is canonical job order, so ids coincide."""
        config = self.config()
        route = [config.routes[t.name] for t in config.tenants]
        per_shard = {s: [] for s in config.shard_ids()}
        for release, tenant, size in inp["rows"]:
            shard, org = route[tenant]
            per_shard[shard].append((release, org, size))
        return [
            batch_workload(config.shard_machine_counts(s), rows)
            for s, rows in per_shard.items()
        ]

    def batch_digest(self, inp):
        config = self.config()
        digests = {}
        for s, wl in zip(config.shard_ids(), self.batch_workloads(inp)):
            scheduler = api.build_scheduler(
                config.policy, seed=config.shard_seed(s)
            )
            digests[s] = schedule_digest(scheduler.run(wl).schedule)
        return digest_of(digests)

    def shard_skew(self, inp) -> float:
        config = self.config()
        route = [config.routes[t.name][0] for t in config.tenants]
        counts = dict.fromkeys(config.shard_ids(), 0)
        for _, tenant, _ in inp["rows"]:
            counts[route[tenant]] += 1
        return max(counts.values()) * len(counts) / sum(counts.values())


class GatewayFifoK64(ServeFifoK64):
    name = "gateway_fifo_k64"
    why = ("the same shards and stream law behind the WAL-backed gateway "
           "with 2 workers and one snapshot_all mid-stream: admission, "
           "routing, JSONL pipes, WAL and worker JSON dominate")
    layer = "gateway"
    min_cores = 2
    snapshot_mid_stream = True
    variants = ("inproc", "nowal", "pipelined", "calls")
    probes = ("engine", "batch", "admission", "wal", "worker")
    sizes = {
        "full": {"n_submits": 20_000, "n_ticks": 50},
        "quick": {"n_submits": 2400, "n_ticks": 6},
    }

    def open(self, inp, workdir, variant=""):
        """Variants: "inproc" is the same shards without the gateway,
        "nowal" the gateway without a snapshot_dir, "pipelined" the
        gateway advancing with ``wait=False``."""
        if variant == "inproc":
            return ShardsTarget(self.config())
        snapshot_dir = None
        if variant != "nowal":
            snapshot_dir = Path(workdir) / "fleet"
            shutil.rmtree(snapshot_dir, ignore_errors=True)
            snapshot_dir.mkdir(parents=True)
        return GatewayTarget(
            self.config(), snapshot_dir, wait=variant != "pipelined"
        )

    def hook(self, target, inp, workdir, rec):
        if not (self.snapshot_mid_stream and target.wal):
            return None
        mid = len(inp["ticks"]) // 2

        def after_tick(i):
            if i != mid:
                return 0
            s = clock()
            out = target.gw.snapshot_all()
            if rec is not None:
                rec.add("gateway.snapshot_all", s, clock(), None, i)
            target.failed += sum("error" in info for info in out.values())
            return 1

        return after_tick


class GatewayRefK16(GatewayFifoK64):
    name = "gateway_ref_k16"
    why = ("all five layers with the expensive policy and skewed "
           "partitions: one k=7 and one k=9 REF shard, one per worker; a "
           "REF-body gain must survive the process boundary here")
    profile_ticks = 100
    probes = ("engine", "kernel", "phi", "batch", "admission", "wal", "worker")
    snapshot_mid_stream = False
    config_args = {"n_tenants": 16, "n_shards": 2, "n_workers": 2,
                   "policy": "ref"}
    sizes = {
        "full": {"n_submits": 2500, "n_ticks": 250},
        "quick": {"n_submits": 300, "n_ticks": 30},
    }


def seeded_portfolio(seed: int, horizon: int, alg_seed: int) -> list:
    """The paper portfolio with every policy seed shifted by ``seed``."""
    return [
        api.build_scheduler(p, seed=alg_seed + seed, horizon=horizon)
        for p in api.PORTFOLIO_SPECS["paper"]
    ]


class SweepTable1K5:
    """The researcher's path: the Table-1 scenario through the pipeline.

    The scenario's instances are the registered ones on every seed: their
    sizes swing by a third from one scenario seed to the next, which would
    drown any bound.  The benchmark seed shifts the seeds of the sampled
    policies (RAND's orderings, DIRECTCONTR's machine order) instead, so
    the schedules differ while the work stays level; seed 0 is the
    registered Table 1 at a fifth of its duration."""

    name = "sweep_table1_k5"
    why = ("the Table-1 sweep through run_pipeline (12 instances, k=5, "
           "paper portfolio + REF): batch schedulers only, no service or "
           "gateway code; bypass workload for every serving optimisation")
    layer = "experiments"
    min_cores = 1
    variants = ()
    probes = ("portfolio",)
    sizes = {
        "full": {"duration": 1000, "n_repeats": 3},
        "quick": {"duration": 300, "n_repeats": 2},
    }

    def inputs(self, seed, quick):
        return {"seed": seed, "sizes": self.sizes["quick" if quick else "full"]}

    def spec(self, inp, **overrides):
        return api.scenario_spec("table1", **{**inp["sizes"], **overrides})

    def pipeline(self, inp, batch: bool, **overrides):
        return api.run_pipeline(
            self.spec(inp, **overrides), workers=1, batch=batch,
            resume=False, keep_instances=True,
            algorithms=partial(seeded_portfolio, inp["seed"]),
        )

    @staticmethod
    def rows_of(result) -> dict:
        return {
            r.key: {"metrics": r.metrics, "n_jobs": r.n_jobs}
            for r in result.instances
        }

    def reference(self, inp) -> str:
        """Repeat 0 of every trace through the per-instance path."""
        return digest_of(self.rows_of(self.pipeline(inp, False, n_repeats=1)))

    def run(self, inp, workdir, rec=None, variant="", counter=None) -> dict:
        # warm-up: the same sweep cut to a few hundred jobs
        self.pipeline(inp, True, duration=200, n_repeats=1)
        cpu0 = time.process_time()
        started = clock()
        result = self.pipeline(inp, True)
        ended = clock()
        cpu1 = time.process_time()
        if rec is not None:
            rec.add("experiments.run_pipeline", started, ended, None, 0)
        rows = self.rows_of(result)
        n_rows = len(next(iter(result.instances[0].metrics.values()))) + 1
        first = {k: v for k, v in rows.items() if k.endswith("/0")}
        return {
            # jobs scheduled: every instance's jobs once per policy and REF
            "n_events": sum(r["n_jobs"] for r in rows.values()) * n_rows,
            "failed": 0,
            "wall_s": ended - started,
            "started": started,
            # the researcher's one latency: the whole call
            "tick_ms": [(ended - started) * 1e3],
            "gap_ms": [],
            "frontdoor_cpu_s": cpu1 - cpu0,
            "counters": {},
            "digest": digest_of(first),
            "timings": result.timings,
            "spawn_s": 0.0,
            "close_s": 0.0,
        }


WORKLOADS = {
    w.name: w
    for w in (
        SweepTable1K5(), ServeRefK8(), ServeFifoK64(), GatewayFifoK64(),
        GatewayRefK16(), ServeChurnCkptK5(),
    )
}
