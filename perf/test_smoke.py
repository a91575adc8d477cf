"""Smoke test of the benchmark itself, at ``--quick`` sizes.

Run by path (it is not part of the tier-1 suite):

    python -m pytest -q perf/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF.parent / "src"), str(PERF)]

import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
TWO_CORES = len(os.sched_getaffinity(0)) >= 2
NAMES = [
    w["name"] for w in SPEC["workloads"]
    if TWO_CORES or WORKLOADS[w["name"]].min_cores == 1
]


def run_main(capsys, *argv) -> "tuple[int, list[dict]]":
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in lines]


def check_metrics(result: dict, declared: "list[dict]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        cell = result["metrics"][m["name"]]
        assert cell["unit"] == m["unit"]
        assert math.isfinite(cell["value"]), m["name"]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perf"]


def test_end_to_end_all_workloads(capsys, tmp_path):
    out = tmp_path / "quick.json"
    code, results = run_main(capsys, "--quick", "--out", str(out),
                             *(["--workload", NAMES[0]] if not TWO_CORES else []))
    assert code == 0
    for result in results:
        check_metrics(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(out.read_text())
    assert {"nproc", "loadavg_1m", "python", "numpy", "commit", "seed"} <= set(
        record["environment"])
    for name, rec in record["workloads"].items():
        # every pass saw the same events and matched the reference
        assert len(set(rec["n_events"])) == 1 and len(rec["n_events"]) == 2, name
        assert rec["sizes"] == WORKLOADS[name].sizes["quick"]


# serve_fifo_k64 and gateway_ref_k16 add no code path to these four
TRACED = [n for n in NAMES if n not in ("serve_fifo_k64", "gateway_ref_k16")]


@pytest.mark.parametrize("name", TRACED)
def test_traced_run_reports_every_layer_metric(capsys, tmp_path, name):
    out = tmp_path / "trace.json"
    code, (result,) = run_main(capsys, "--quick", "--trace", "1",
                               "--workload", name, "--out", str(out))
    assert code == 0
    check_metrics(result, SPEC["per_layer"])
    rec = json.loads(out.read_text())["workloads"][name]
    assert rec["probe_missing"] == {}
    assert rec["metrics"]["trace.span_coverage"]["value"] >= 0.95
    spans = (tmp_path / f"trace.{name}.trace.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "tick"} == set(json.loads(spans[0]))


def test_wrong_reference_fails_every_op(capsys, monkeypatch):
    w = WORKLOADS["serve_churn_ckpt_k5"]
    monkeypatch.setattr(type(w), "reference", lambda self, inp: "0" * 16)
    code, (result,) = run_main(capsys, "--quick", "--workload", w.name)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_missing_symbol_yields_null_not_a_crash(monkeypatch, tmp_path):
    def gone(w, inp, workdir):
        probes.need("repro.core.engine.NoSuchEngine")

    metric = "core.engine.drive_us_per_job"
    monkeypatch.setitem(probes.PROBES, "engine", (gone, (metric,)))
    w = WORKLOADS["serve_ref_k8"]
    metrics, missing = probes.run_probes(w, w.inputs(0, True), tmp_path)
    assert metrics[metric] is None
    assert "NoSuchEngine" in missing[metric]
    assert metrics["algorithms.batch_us_per_event"] > 0  # the rest still ran


def test_child_repeats_the_region_until_its_budget_is_spent(tmp_path):
    args = SimpleNamespace(seed=0, quick=True, out=None)
    w = WORKLOADS["serve_ref_k8"]
    child = run.spawn("rep", w, args, tmp_path, budget=0.3)
    passes = child["passes"]
    assert len(passes) >= 2
    assert sum(p["wall_s"] for p in passes[:-1]) < 0.3
    assert len({(p["n_events"], p["digest"]) for p in passes}) == 1
    # every piece is counted at its minimum over the passes
    ticks = run.undisturbed(passes, "tick_ms")
    assert len(ticks) == len(passes[0]["tick_ms"])
    assert all(t <= p["tick_ms"][i] for p in passes for i, t in enumerate(ticks))


def test_call_counts_repeat_exactly(tmp_path):
    args = SimpleNamespace(seed=0, quick=True, out=None)
    w = WORKLOADS["serve_ref_k8"]
    first, second = (
        run.spawn("rep", w, args, tmp_path, variant="calls") for _ in range(2)
    )
    assert first["calls"] == second["calls"]
    assert first["calls"]["py"] > 0 and first["calls"]["c"] > 0
