"""Per-layer metrics of a traced run, from its spans, variants and probes.

Only what the workload exercises gets a value; everything else stays
unset (0 in the result line, ``null`` in the ``--out`` record).
"""

from __future__ import annotations

import math
import statistics

#: variants that must reproduce the workload's own schedule
SAME_SCHEDULE = ("inproc", "nowal", "pipelined")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def us_per_event(rep: dict) -> float:
    return rep["wall_s"] * 1e6 / rep["n_events"]


def per_layer(w, inp, plain, traced, variants, probes) -> dict:
    """``plain`` and ``traced`` are the untraced and traced child,
    ``variants`` one child per variant (each child's fastest pass stands
    for it), ``probes`` the probe child's metrics."""
    spans = traced["spans"]
    m = dict(probes)

    def mean(name: str, scale: float) -> "float | None":
        cell = spans.get(name)
        return None if cell is None else cell["total_s"] / cell["n"] * scale

    def total(name: str) -> "float | None":
        cell = spans.get(name)
        return None if cell is None else cell["total_s"]

    m["workloads.generate_s"] = plain["generate_s"]
    # first pass against first pass: both ran in a just-started process
    m["trace.overhead_share"] = 1.0 - plain["passes"][0]["wall_s"] / traced["wall_s"]
    m["trace.span_coverage"] = traced["span_coverage"]
    m[f"{w.layer}.cpu_s"] = plain["cpu_s"]
    for key, value in (plain.get("timings") or {}).items():
        m[f"experiments.{key}_s"] = value
    if "calls" in variants:
        calls = variants["calls"]
        m["calls.py_per_event"] = calls["calls"]["py"] / calls["n_events"]
        m["calls.c_per_event"] = calls["calls"]["c"] / calls["n_events"]
    if w.layer == "experiments":
        return m

    gateway = w.layer == "gateway"
    service = variants["inproc"] if gateway else plain
    counters = plain["counters"]
    ticks = traced["tick_ms"]
    quarter = max(1, len(ticks) // 4)
    batch_us = m.get("algorithms.batch_us_per_event")
    drive_us = m.get("core.kernel.fifo_drive_us_per_event")
    m["service.us_per_event"] = us_per_event(service)
    m["service.flushes"] = counters["flushes"]
    m["service.jobs_per_flush"] = counters["jobs_flushed"] / counters["flushes"]
    m["service.tick_growth_q4_over_q1"] = (
        statistics.fmean(ticks[-quarter:]) / statistics.fmean(ticks[:quarter])
    )
    m[f"{w.layer}.tick_p99_ms"] = percentile(plain["tick_ms"], 0.99)
    if batch_us:
        m["service.online_over_batch_ratio"] = us_per_event(service) / batch_us
        if drive_us is not None:
            m["algorithms.ref_body_share"] = 1.0 - drive_us / batch_us
    if "fifo" in variants:
        m["service.ref_over_fifo_ratio"] = (
            us_per_event(plain) / us_per_event(variants["fifo"]))
    if not gateway:
        m["service.submit_us"] = mean("service.submit", 1e6)
        m["service.advance_us_per_event"] = (
            total("service.advance") * 1e6 / traced["n_events"])
        m["service.drain_s"] = total("service.drain")
        m["service.journal_ops"] = counters["journal_ops"]
        if "service.restore" in spans:
            for leg in ("snapshot", "save", "load", "restore"):
                m[f"service.{leg}_ms"] = mean(f"service.{leg}", 1e3)
            m["service.snapshot_bytes"] = counters["snapshot_bytes"]
            m["service.restore_us_per_journal_op"] = (
                mean("service.restore", 1e6) / counters["restored_ops"])
        return m

    nowal, piped = variants["nowal"], variants["pipelined"]
    worker_us = m.pop("gateway.worker.inproc_us_per_event", None)
    m["gateway.us_per_event"] = us_per_event(plain)
    m["gateway.nowal_us_per_event"] = us_per_event(nowal)
    m["gateway.tax_ratio"] = us_per_event(plain) / us_per_event(service)
    m["gateway.nowal_tax_ratio"] = us_per_event(nowal) / us_per_event(service)
    m["gateway.wal.share"] = 1.0 - us_per_event(nowal) / us_per_event(plain)
    m["gateway.wal.fsyncs"] = counters["wal_fsyncs"]
    if worker_us is not None:
        m["gateway.worker.json_tax_ratio"] = worker_us / us_per_event(service)
    m["gateway.pipelined_events_per_s"] = piped["n_events"] / piped["wall_s"]
    m["gateway.spawn_s"] = plain["spawn_s"]
    m["gateway.close_s"] = plain["close_s"]
    m["gateway.submit_call_us"] = mean("gateway.submit", 1e6)
    m["gateway.barrier_ms"] = mean("gateway.barrier", 1e3)
    m["gateway.snapshot_all_s"] = total("gateway.snapshot_all")
    m["gateway.drain_s"] = total("gateway.drain")
    m["gateway.frontdoor_cpu_s"] = plain["frontdoor_cpu_s"]
    m["gateway.workers_cpu_s"] = plain["workers_cpu_s"]
    m["gateway.shard_skew"] = w.shard_skew(inp)
    return m
