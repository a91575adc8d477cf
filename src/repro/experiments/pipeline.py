"""The experiment execution engine: parallel, cached, resumable.

:func:`run_pipeline` turns a :class:`~repro.experiments.spec.ScenarioSpec`
into aggregated results with three properties the hand-rolled serial loop
lacked:

**Parallel, deterministically.**  *Shards* of the instance list fan out
over a :class:`~concurrent.futures.ProcessPoolExecutor` (one task per
shard, not per instance, so IPC+pickle overhead stops dominating small
instances).  Each instance derives its RNGs from stable string keys
(``zlib.crc32`` — identical across processes), and aggregation consumes
results in the spec's canonical instance order regardless of completion
order, so a ``workers=N`` run is **bit-identical** to the serial run
(asserted in tests).

**Batched across instances.**  Within a shard, every admissible REF
reference run advances through one fused
:meth:`~repro.core.kernel.FleetKernel.batch` sweep loop
(:func:`~repro.algorithms.multiref.ref_results_batched`) instead of one
Python event loop per instance; inadmissible instances (small k,
failed per-instance int64 certification) transparently fall back to the
stock per-instance path.  ``batch=False`` forces the per-instance path
everywhere — results are bit-identical either way (asserted in tests).

**Deduplicated across specs.**  With a ``store_dir``, every scored
portfolio row lands in a content-addressed
:class:`~repro.experiments.store.ResultStore` keyed by the concrete
``(workload, policy, seed, horizon, metrics)`` content — not the spec
hash — so overlapping specs (portfolio variants, re-sliced sweeps) replay
shared rows bit-identically instead of recomputing them, and an
instance whose rows all hit skips even its REF reference run.

**Cached, resumably.**  With a ``cache_dir``, every finished
:class:`PipelineInstanceResult` is appended (and flushed) to a JSONL file named by
the spec's content hash.  A killed run resumes from the last flushed line;
a finished run replays entirely from cache; editing *any* spec knob
changes the hash and starts fresh.  Torn tail lines from a kill are
skipped on load.

**O(1) memory in repeats.**  Results stream through Welford mean/std
accumulators (:class:`StreamingStats`) per (group, metric, algorithm)
cell; instances are only retained when ``keep_instances=True``.

The per-instance work itself (:func:`run_instance_spec`) is: family
builder -> workload; portfolio factory -> algorithms; exact REF reference;
score every (algorithm, metric) cell — steps 1-6 of the paper's Section
7.2 protocol.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ..algorithms.multiref import ref_results_batched
from ..policies import build_scheduler
from ..sim.runner import evaluate_portfolio
from .registry import get_family, get_portfolio, scenario_spec
from .spec import InstanceSpec, ScenarioSpec
from .store import ResultStore

__all__ = [
    "PipelineInstanceResult",
    "PipelineResult",
    "StreamingStats",
    "cache_path_for",
    "run_instance_spec",
    "run_pipeline",
    "run_scenario",
    "run_shard",
    "shard_instances",
]

#: Optional override for the spec's named portfolio (must be picklable for
#: parallel runs).  Overrides disable the cache: a callable has no stable
#: content hash.
AlgorithmFactory = Callable[[int, int], list]

Variant = tuple[tuple[str, "int | float | str"], ...]


@dataclass(frozen=True)
class PipelineInstanceResult:
    """The outcome of one pipeline instance (one cache line).

    ``metrics`` maps metric name -> algorithm name -> score.  Equality is
    exact (dict/float comparison), which is what the serial==parallel and
    cache-replay guarantees are asserted against.
    """

    key: str
    trace: str
    repeat: int
    variant: Variant
    metrics: dict[str, dict[str, float]]
    n_jobs: int
    n_machines: int

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "trace": self.trace,
            "repeat": self.repeat,
            "variant": [list(pair) for pair in self.variant],
            "metrics": self.metrics,
            "n_jobs": self.n_jobs,
            "n_machines": self.n_machines,
        }

    @classmethod
    def from_json(cls, d: dict) -> "PipelineInstanceResult":
        return cls(
            key=d["key"],
            trace=d["trace"],
            repeat=int(d["repeat"]),
            variant=tuple((k, v) for k, v in d["variant"]),
            metrics=d["metrics"],
            n_jobs=int(d["n_jobs"]),
            n_machines=int(d["n_machines"]),
        )


class StreamingStats:
    """Welford mean/std accumulator (population std, matching ``np.std``).

    O(1) state per cell regardless of how many repeats stream through —
    the pipeline's memory does not grow with ``n_repeats``.
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self._m2 / self.n) if self.n else 0.0

    def as_tuple(self) -> tuple[int, float, float]:
        return (self.n, self.mean, self.std)


@dataclass
class PipelineResult:
    """Aggregated pipeline outcome.

    ``aggregates`` maps ``(trace, variant)`` group keys to
    ``{metric: {algorithm: (n, mean, std)}}``.  ``instances`` is ``None``
    unless the run was asked to keep them (``keep_instances=True``).
    """

    spec: ScenarioSpec
    aggregates: dict[
        "tuple[str, Variant]", dict[str, dict[str, tuple[int, float, float]]]
    ]
    computed: int
    cached: int
    wall_time_s: float
    cache_path: "str | None" = None
    instances: "tuple[PipelineInstanceResult, ...] | None" = None
    #: Per-stage wall time: ``simulate`` (worker compute, including the
    #: batched kernels), ``aggregate`` (streaming stats), ``cache_io``
    #: (checkpoint load + append/flush) — the attribution benchmarks
    #: record so perf regressions name their stage.
    timings: "dict[str, float] | None" = None

    def groups(self) -> list["tuple[str, Variant]"]:
        return list(self.aggregates)

    def algorithms(self) -> list[str]:
        names: list[str] = []
        for per_metric in self.aggregates.values():
            for per_alg in per_metric.values():
                for name in per_alg:
                    if name not in names:
                        names.append(name)
        return names

    def mean_std(
        self,
        trace: str,
        algorithm: str,
        metric: str = "avg_delay",
        variant: Variant = (),
    ) -> tuple[float, float]:
        cell = self.aggregates[(trace, variant)][metric][algorithm]
        return cell[1], cell[2]


def cache_path_for(spec: ScenarioSpec, cache_dir: "str | Path") -> Path:
    """The spec's JSONL checkpoint file: family + content hash."""
    return Path(cache_dir) / f"{spec.family}-{spec.content_hash()}.jsonl"


def run_instance_spec(
    spec: ScenarioSpec,
    inst: InstanceSpec,
    algorithms: "AlgorithmFactory | None" = None,
) -> PipelineInstanceResult:
    """Compute one instance end-to-end (the worker-process entry point).

    Row resolution order: an explicit ``algorithms`` callable wins, then
    the spec's embedded ``policies`` (each built through the policy
    registry with the instance's derived seed), then the named
    portfolio.  The ``spec.reference`` policy (exact REF by default; an
    approximate stand-in for high-``k`` scenarios) also resolves through
    the registry, with the instance's derived seed.
    """
    build = get_family(spec.family)
    workload, alg_seed = build(spec, inst)
    if algorithms is not None:
        portfolio = algorithms(spec.duration, alg_seed)
    elif spec.policies:
        portfolio = [
            build_scheduler(p, seed=alg_seed, horizon=spec.duration)
            for p in spec.policies
        ]
    else:
        portfolio = get_portfolio(spec.portfolio)(spec.duration, alg_seed)
    metrics = evaluate_portfolio(
        workload,
        spec.duration,
        portfolio,
        build_scheduler(
            spec.reference, seed=alg_seed, horizon=spec.duration
        ),
        spec.metrics,
    )
    return PipelineInstanceResult(
        key=inst.key,
        trace=inst.trace,
        repeat=inst.repeat,
        variant=inst.variant,
        metrics=metrics,
        n_jobs=len(workload.jobs),
        n_machines=workload.n_machines,
    )


#: Upper bound on instances per worker shard: large enough to amortize
#: per-shard kernel construction and coefficient-plan reuse, small enough
#: that the padded lockstep arrays stay cache-resident and a straggler
#: shard cannot serialize the pool tail.
MAX_SHARD = 32


def shard_instances(
    todo: "list[InstanceSpec]", workers: int
) -> "list[tuple[InstanceSpec, ...]]":
    """Split the work list into contiguous shards: one batched kernel and
    one executor task per shard (replacing ``chunksize=1`` task-per-
    instance dispatch).  Serial runs take maximal shards; parallel runs
    aim for ~2 shards per worker so the order-preserving map keeps every
    worker busy without per-instance IPC+pickle round trips."""
    if not todo:
        return []
    if workers <= 1:
        size = min(len(todo), MAX_SHARD)
    else:
        size = max(1, min(MAX_SHARD, -(-len(todo) // (workers * 2))))
    return [tuple(todo[i : i + size]) for i in range(0, len(todo), size)]


def run_shard(
    spec: ScenarioSpec,
    insts: "tuple[InstanceSpec, ...] | list[InstanceSpec]",
    algorithms: "AlgorithmFactory | None" = None,
    *,
    batch: bool = True,
    store: "ResultStore | None" = None,
) -> list[PipelineInstanceResult]:
    """Compute a shard of instances as one unit, bit-identically to
    per-instance :func:`run_instance_spec` calls.

    Three-stage shape: (1) probe the cross-spec result store — an
    instance whose every portfolio row hits is assembled from stored
    floats and skips simulation entirely; (2) run all remaining REF
    references through one fused multi-instance kernel (``batch=True``;
    inadmissible instances fall back per-instance, never evicting their
    siblings); (3) score every instance through the exact same
    :func:`evaluate_portfolio` float path as the per-instance runner,
    writing fresh rows back to the store.  Store keys require rows with
    stable policy identity (:meth:`ScenarioSpec.policy_rows`), so an
    ``algorithms`` callable or bare-factory portfolio disables the store,
    exactly like it disables the JSONL cache.
    """
    build = get_family(spec.family)
    prepared = [(inst, *build(spec, inst)) for inst in insts]
    rows = None
    # the result store keys rows by (workload, policy, seed, metrics)
    # only -- a non-default reference changes every metric value, so it
    # bypasses the store rather than poisoning REF-keyed rows
    if (
        store is not None
        and algorithms is None
        and spec.metrics
        and spec.reference == "ref"
    ):
        rows = spec.policy_rows()
    keys_by_inst: dict[str, list[str]] = {}
    hit_metrics: dict[str, dict[str, dict[str, float]]] = {}
    need_ref: list[tuple[InstanceSpec, "object"]] = []
    for inst, workload, alg_seed in prepared:
        if rows is not None:
            keys = [
                store.key_for(
                    workload, p, alg_seed, spec.duration, spec.metrics
                )
                for p in rows
            ]
            keys_by_inst[inst.key] = keys
            stored = [store.get(k) for k in keys]
            if all(r is not None for r in stored):
                assembled: dict[str, dict[str, float]] = {
                    m: {} for m in spec.metrics
                }
                for r in stored:
                    for m in spec.metrics:
                        assembled[m][r["algorithm"]] = r["metrics"][m]
                hit_metrics[inst.key] = assembled
                continue
        need_ref.append((inst, workload, alg_seed))
    refs: dict[str, object] = {}
    if need_ref:
        # the fused multi-instance kernel is REF-only; approximate
        # references run per-instance through the registry
        if batch and spec.reference == "ref":
            batched = ref_results_batched(
                [(w, spec.duration) for _, w, _ in need_ref]
            )
        else:
            batched = [None] * len(need_ref)
        for (inst, workload, alg_seed), ref_result in zip(need_ref, batched):
            if ref_result is None:
                ref_result = build_scheduler(
                    spec.reference, seed=alg_seed, horizon=spec.duration
                ).run(workload)
            refs[inst.key] = ref_result
    results: list[PipelineInstanceResult] = []
    for inst, workload, alg_seed in prepared:
        metrics = hit_metrics.get(inst.key)
        if metrics is None:
            if algorithms is not None:
                portfolio = algorithms(spec.duration, alg_seed)
            elif spec.policies:
                portfolio = [
                    build_scheduler(p, seed=alg_seed, horizon=spec.duration)
                    for p in spec.policies
                ]
            else:
                portfolio = get_portfolio(spec.portfolio)(
                    spec.duration, alg_seed
                )
            metrics = evaluate_portfolio(
                workload,
                spec.duration,
                portfolio,
                spec.reference,
                spec.metrics,
                reference_result=refs[inst.key],
            )
            if rows is not None:
                names = list(next(iter(metrics.values()), {}))
                # positional row <-> scored-name alignment requires
                # distinct names; degenerate portfolios just skip storage
                if len(names) == len(rows):
                    for key, name in zip(keys_by_inst[inst.key], names):
                        store.put(
                            key,
                            name,
                            {m: metrics[m][name] for m in spec.metrics},
                        )
        results.append(
            PipelineInstanceResult(
                key=inst.key,
                trace=inst.trace,
                repeat=inst.repeat,
                variant=inst.variant,
                metrics=metrics,
                n_jobs=len(workload.jobs),
                n_machines=workload.n_machines,
            )
        )
    return results


def _run_shard(args) -> list[PipelineInstanceResult]:
    """Picklable ProcessPoolExecutor task (one per shard)."""
    spec, insts, algorithms, batch, store_dir = args
    store = ResultStore(store_dir) if store_dir is not None else None
    return run_shard(spec, insts, algorithms, batch=batch, store=store)


def _compute_stream(
    spec: ScenarioSpec,
    todo: "list[InstanceSpec]",
    workers: int,
    algorithms: "AlgorithmFactory | None",
    batch: bool,
    store_dir: "str | Path | None",
) -> Iterator[PipelineInstanceResult]:
    """Yield fresh results in ``todo`` order (parallel computation happens
    behind an order-preserving ``Executor.map`` over shards)."""
    shards = shard_instances(todo, workers)
    if workers <= 1 or len(shards) <= 1:
        store = ResultStore(store_dir) if store_dir is not None else None
        for shard in shards:
            yield from run_shard(
                spec, shard, algorithms, batch=batch, store=store
            )
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as ex:
        for shard_results in ex.map(
            _run_shard,
            (
                (spec, shard, algorithms, batch, store_dir)
                for shard in shards
            ),
            chunksize=1,
        ):
            yield from shard_results


def _load_cache(path: Path) -> dict[str, PipelineInstanceResult]:
    """Replay a checkpoint file; torn tail lines (killed mid-write) and
    other junk lines are skipped, not fatal."""
    out: dict[str, PipelineInstanceResult] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return out
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            result = PipelineInstanceResult.from_json(json.loads(line))
        except (ValueError, KeyError, TypeError):
            continue
        out[result.key] = result
    return out


def run_pipeline(
    spec: ScenarioSpec,
    *,
    workers: int = 1,
    cache_dir: "str | Path | None" = None,
    resume: bool = True,
    keep_instances: bool = False,
    algorithms: "AlgorithmFactory | None" = None,
    progress: "Callable[[str], None] | None" = None,
    batch: bool = True,
    store_dir: "str | Path | None" = None,
) -> PipelineResult:
    """Execute every instance of ``spec`` and aggregate.

    Parameters
    ----------
    workers:
        Process fan-out; ``1`` runs inline.  Results are identical either
        way (see module docstring).
    cache_dir:
        Directory for the JSONL instance checkpoint.  ``None`` disables
        caching entirely.
    resume:
        Replay instances already present in the checkpoint instead of
        recomputing them (``False`` recomputes and re-appends everything).
    keep_instances:
        Retain per-instance results on the returned object (memory then
        grows with instance count; aggregation itself stays streaming).
    algorithms:
        Optional portfolio override (callable).  Disables the cache and
        the result store — a callable has no stable content hash to key
        either by.
    progress:
        Called with one short line per finished instance.
    batch:
        Advance each shard's REF references through one fused
        multi-instance kernel (``False`` forces the per-instance path;
        results are bit-identical either way).
    store_dir:
        Directory of the cross-spec content-addressed
        :class:`~repro.experiments.store.ResultStore`.  Unlike
        ``cache_dir`` (keyed by spec hash) it dedupes shared
        ``(workload, policy, seed)`` rows across *different* specs.
    """
    started = time.perf_counter()
    timings = {"simulate": 0.0, "aggregate": 0.0, "cache_io": 0.0}
    instances = spec.instances()
    cache_file: "Path | None" = None
    cached: dict[str, PipelineInstanceResult] = {}
    if cache_dir is not None and algorithms is None:
        cache_file = cache_path_for(spec, cache_dir)
        if resume:
            t0 = time.perf_counter()
            cached = _load_cache(cache_file)
            timings["cache_io"] += time.perf_counter() - t0
    todo = [inst for inst in instances if inst.key not in cached]
    fresh = _compute_stream(spec, todo, workers, algorithms, batch, store_dir)

    aggregates: dict[
        "tuple[str, Variant]", dict[str, dict[str, StreamingStats]]
    ] = {}
    kept: list[PipelineInstanceResult] = []
    n_cached = 0
    n_computed = 0
    sink = None
    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        sink = open(cache_file, "a", encoding="utf-8")
    try:
        for inst in instances:
            if inst.key in cached:
                result = cached[inst.key]
                n_cached += 1
            else:
                t0 = time.perf_counter()
                result = next(fresh)
                timings["simulate"] += time.perf_counter() - t0
                n_computed += 1
                if sink is not None:
                    t0 = time.perf_counter()
                    sink.write(
                        json.dumps(result.to_json(), separators=(",", ":"))
                        + "\n"
                    )
                    sink.flush()
                    timings["cache_io"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            group = aggregates.setdefault((result.trace, result.variant), {})
            for metric, per_alg in result.metrics.items():
                cells = group.setdefault(metric, {})
                for alg, value in per_alg.items():
                    cells.setdefault(alg, StreamingStats()).push(value)
            timings["aggregate"] += time.perf_counter() - t0
            if keep_instances:
                kept.append(result)
            if progress is not None:
                origin = "cached" if inst.key in cached else "computed"
                progress(
                    f"[{n_cached + n_computed}/{len(instances)}] "
                    f"{result.key} ({origin})"
                )
    finally:
        if sink is not None:
            sink.close()

    final = {
        g: {
            metric: {alg: s.as_tuple() for alg, s in cells.items()}
            for metric, cells in per_metric.items()
        }
        for g, per_metric in aggregates.items()
    }
    return PipelineResult(
        spec=spec,
        aggregates=final,
        computed=n_computed,
        cached=n_cached,
        wall_time_s=time.perf_counter() - started,
        cache_path=str(cache_file) if cache_file is not None else None,
        instances=tuple(kept) if keep_instances else None,
        timings=timings,
    )


#: The keywords :func:`run_scenario` hands to :func:`run_pipeline`.
_RUN_OPTIONS = frozenset(run_pipeline.__kwdefaults__)


def run_scenario(name: str, **kwargs) -> PipelineResult:
    """Run the registered scenario ``name`` through :func:`run_pipeline`.

    A keyword :func:`run_pipeline` takes (``workers``, ``cache_dir``,
    ``batch``, ...) goes to it; every other keyword overrides a field of
    the scenario's spec (:func:`~repro.experiments.registry.scenario_spec`:
    ``None`` keeps the scenario's value).
    """
    run = {k: kwargs.pop(k) for k in _RUN_OPTIONS & kwargs.keys()}
    return run_pipeline(scenario_spec(name, **kwargs), **run)
