"""Isolated per-layer probes, run on the workload's own stream.

A probe times calls into one layer's public functions from outside.  Its
target is resolved by dotted name when the probe runs: a symbol a later
change deleted yields ``None`` for the probe's metrics and an entry in
``probe_missing`` instead of a crash, so no change to ``src/`` ever has
to edit this directory.
"""

from __future__ import annotations

import importlib
import io
import json
import time
import traceback

import numpy as np

from repro import api

clock = time.perf_counter


class Missing(Exception):
    """The symbol a probe measures is gone."""


def need(dotted: str):
    module, _, attr = dotted.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        raise Missing(dotted) from None


def timed(fn, *args, **kwargs) -> "tuple[float, object]":
    t0 = clock()
    out = fn(*args, **kwargs)
    return clock() - t0, out


def stream_events(inp) -> int:
    return len(inp["rows"]) + len(inp["ticks"])


# ----------------------------------------------------------------------
# probes; each returns {metric: value}
# ----------------------------------------------------------------------
def engine_probe(w, inp, workdir) -> dict:
    """Rung 1: one bare ``ClusterEngine`` FIFO drive per batch twin."""
    engine_cls = need("repro.core.engine.ClusterEngine")
    fifo_select = need("repro.algorithms.greedy.fifo_select")
    total = 0.0
    for wl in w.batch_workloads(inp):
        engine = engine_cls(wl)
        total += timed(engine.drive, fifo_select)[0]
    return {"core.engine.drive_us_per_job": total * 1e6 / len(inp["rows"])}


def kernel_probe(w, inp, workdir) -> dict:
    """Rung 2 on a REF stream: ``FleetKernel`` over every coalition mask,
    driven FIFO (the REF batch scheduler minus its event body)."""
    kernel_cls = need("repro.core.kernel.FleetKernel")
    build_s = drive_s = 0.0
    for wl in w.batch_workloads(inp):
        end = max(j.release for j in wl.jobs) + sum(j.size for j in wl.jobs)
        dt, kernel = timed(kernel_cls, wl, range(1, 1 << wl.n_orgs))
        build_s += dt
        drive_s += timed(kernel.drive_fifo, end)[0]
    return {
        "core.kernel.build_ms": build_s * 1e3,
        "core.kernel.fifo_drive_us_per_event": drive_s * 1e6 / stream_events(inp),
    }


def phi_probe(w, inp, workdir) -> dict:
    """One UpdateVals at the stream's largest k through the public solver:
    every size group's ``phi_scaled_matrix``."""
    solver_cls = need("repro.shapley.vectorized.ScaledShapleySolver")
    k = max(wl.n_orgs for wl in w.batch_workloads(inp))
    masks = range(1, 1 << k)
    solver = solver_cls({m: i for i, m in enumerate(masks)})
    groups = [
        tuple(m for m in masks if m.bit_count() == s) for s in range(1, k + 1)
    ]
    values = np.arange(len(masks), dtype=np.int64)

    def update_vals():
        for group in groups:
            solver.phi_scaled_matrix(group, values, len(masks), k)

    update_vals()  # builds the plans
    n = 50
    dt = timed(lambda: [update_vals() for _ in range(n)])[0]
    return {"shapley.phi_matrix_us_per_call": dt * 1e6 / n}


def batch_probe(w, inp, workdir) -> dict:
    """The batch scheduler of the workload's policy over its batch twins."""
    dt = timed(w.batch_digest, inp)[0]
    return {"algorithms.batch_us_per_event": dt * 1e6 / stream_events(inp)}


def portfolio_probe(w, inp, workdir) -> dict:
    """Each of the sweep's seven policies alone on its first instance."""
    get_family = need("repro.experiments.registry.get_family")
    spec = w.spec(inp)
    workload, alg_seed = get_family(spec.family)(spec, spec.instances()[0])
    out = {}
    for policy in ("ref", *api.PORTFOLIO_SPECS["paper"]):
        scheduler = api.build_scheduler(
            policy, seed=alg_seed + inp["seed"], horizon=spec.duration
        )
        name = api.resolve_policy(policy).name
        out[f"algorithms.batch_s.{name}"] = timed(scheduler.run, workload)[0]
    return out


def admission_probe(w, inp, workdir) -> dict:
    config = w.config()
    controller = need("repro.gateway.admission.AdmissionController")(config)
    names = [t.name for t in config.tenants]
    admit = controller.admit_submit
    t0 = clock()
    for release, tenant, size in inp["rows"]:
        admit(names[tenant], size, release)
    return {"gateway.admission.admit_us": (clock() - t0) * 1e6 / len(inp["rows"])}


def wal_probe(w, inp, workdir) -> dict:
    """``ShardWal`` alone: append the stream's submits as the pool would."""
    wal = need("repro.gateway.wal.ShardWal").create(
        workdir / "wal-probe", 0, truncate=True
    )
    rows = inp["rows"][:20_000]
    t0 = clock()
    for release, tenant, size in rows:
        wal.append({"op": "submit", "org": tenant, "size": size,
                    "release": release})
    dt = clock() - t0
    return {
        "gateway.wal.append_us": dt * 1e6 / len(rows),
        "gateway.wal.bytes_per_event": wal.path.stat().st_size / len(rows),
    }


def worker_probe(w, inp, workdir) -> dict:
    """The worker loop in-process: every shard in one ``serve_shards``
    call over pre-encoded command lines into a ``StringIO``."""
    serve_shards = need("repro.gateway.worker.serve_shards")
    config = w.config()
    route = [config.routes[t.name] for t in config.tenants]
    manifest = {
        "worker": 0,
        "shards": {
            str(s): {
                "machine_counts": list(config.shard_machine_counts(s)),
                "policy": config.policy,
                "seed": config.shard_seed(s),
            }
            for s in config.shard_ids()
        },
    }
    cmds = []
    for t, rows in inp["ticks"]:
        for tenant, size in rows:
            shard, org = route[tenant]
            cmds.append({"shard": shard, "op": "submit", "org": org,
                         "size": size, "release": t})
        cmds += [{"shard": s, "op": "advance", "t": t}
                 for s in config.shard_ids()]
    cmds += [{"shard": s, "op": "drain"} for s in config.shard_ids()]
    lines = [json.dumps({"id": i, **c}) for i, c in enumerate(cmds)]
    out = io.StringIO()
    dt = timed(serve_shards, manifest, lines, out)[0]
    refused = out.getvalue().count('"ok": false')
    if refused:
        raise RuntimeError(f"{refused} worker ops refused")
    return {
        "gateway.worker.inproc_us_per_op": dt * 1e6 / len(lines),
        "gateway.worker.inproc_us_per_event": dt * 1e6 / stream_events(inp),
    }


#: probe name -> (function, the metrics it yields)
PROBES = {
    "engine": (engine_probe, ("core.engine.drive_us_per_job",)),
    "kernel": (kernel_probe, ("core.kernel.build_ms",
                              "core.kernel.fifo_drive_us_per_event")),
    "phi": (phi_probe, ("shapley.phi_matrix_us_per_call",)),
    "batch": (batch_probe, ("algorithms.batch_us_per_event",)),
    "portfolio": (portfolio_probe, tuple(
        f"algorithms.batch_s.{p}" for p in (
            "ref", "rand", "directcontr", "fairshare", "utfairshare",
            "currfairshare", "roundrobin"))),
    "admission": (admission_probe, ("gateway.admission.admit_us",)),
    "wal": (wal_probe, ("gateway.wal.append_us",
                        "gateway.wal.bytes_per_event")),
    "worker": (worker_probe, ("gateway.worker.inproc_us_per_op",
                              "gateway.worker.inproc_us_per_event")),
}


def run_probes(w, inp, workdir) -> "tuple[dict, dict]":
    """Run the workload's probes; returns ``(metrics, probe_missing)``.
    A probe that fails for any reason costs its own metrics (``None`` and
    a reason each), never the run."""
    metrics: dict = {}
    missing: dict = {}
    for name in w.probes:
        probe, yields = PROBES[name]
        try:
            metrics.update(probe(w, inp, workdir))
        except Missing as exc:
            reason = f"symbol gone: {exc}"
        except Exception:
            reason = traceback.format_exc(limit=3)
        else:
            continue
        for metric in yields:
            metrics[metric] = None
            missing[metric] = reason
    return metrics, missing
