"""Dispatch guards: each chosen path is no slower than the forced one.

PR 1's vectorized psi_sp ledger made REF k=8 2.5x faster but left k=4 at
0.94x of the seed: with <= 15 subcoalitions, per-event numpy overhead
exceeds the Python loops it replaces.  REF therefore dispatches on
``VECTORIZE_MIN_K``: below it the exact big-int path
(``shapley_exact_scaled`` with its cached subset decomposition) runs, at
or above it the int64
values and the coefficient-matrix matmul do.  ``CoalitionFleet``
dispatches the same way on ``KERNEL_MIN_ENGINES``: fleets of at least that
many coalitions run on the batched ``FleetKernel``, smaller ones on
per-coalition engines.  These
benchmarks pin both dispatches to the right side of their crossover on
the machine actually running them:

* the k=4 bench instance must be no slower on the chosen (exact) path
  than with vectorization forced on;
* the k=8 bench instance must be no slower on the chosen (vectorized)
  path than with vectorization forced off;
* the k=8 bench instance (255 coalitions) must be no slower on the chosen
  (kernel) backend than with the kernel threshold out of reach (6-8x
  faster on 2 cores);
* the RAND k=8, N=75 value oracle (188 sampled coalitions) must be no
  slower on the chosen (kernel) backend than on ``backend="engines"``
  (4-4.6x faster);
* the RAND k=5, N=15 value oracle (26 sampled coalitions, the Table 1
  configuration) must be no slower on the chosen (engines) backend than
  on ``backend="kernel"`` (1.7-1.9x faster on 2 cores).

All comparisons are measured back-to-back in-process (best-of-N), so the
assertions are about the *dispatch decision*, not about absolute machine
speed; a generous 15% slack absorbs timer noise.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms import ref as ref_mod
from repro.algorithms.base import members_mask
from repro.algorithms.greedy import fifo_select
from repro.algorithms.ref import RefRun, RefScheduler
from repro.core import kernel as kernel_mod
from repro.core.fleet import CoalitionFleet
from repro.shapley.sampling import SampledPrefixes, sample_member_orderings

from .bench_engine import ref_k8_workload
from tests.conftest import random_workload

#: Noise allowance for the paired timing comparisons.
SLACK = 1.15

#: A ``KERNEL_MIN_ENGINES`` no fleet reaches.
ENGINES_ONLY = 1 << 30


def k4_workload():
    """The k=4 instance PR 1 regressed (test_ref_event_cost's shape)."""
    rng = np.random.default_rng(3)
    return random_workload(
        rng, n_orgs=4, n_jobs=40, max_release=60,
        sizes=(1, 2, 5), machine_counts=[1, 1, 1, 1],
    )


def best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _timed_with_threshold(workload, threshold: int, monkeypatch) -> float:
    monkeypatch.setattr(ref_mod, "VECTORIZE_MIN_K", threshold)
    RefScheduler().run(workload)  # warm caches before timing
    return best_of(lambda: RefScheduler().run(workload))


def test_k4_exact_dispatch_beats_forced_vectorization(benchmark, monkeypatch):
    wl = k4_workload()
    chosen = _timed_with_threshold(wl, ref_mod.VECTORIZE_MIN_K, monkeypatch)
    forced = _timed_with_threshold(wl, 0, monkeypatch)
    benchmark.extra_info.update({"exact_s": chosen, "vectorized_s": forced})
    benchmark(lambda: None)  # timings recorded above; keep the fixture happy
    assert chosen <= forced * SLACK, (
        f"k=4 pays vectorization overhead: exact {chosen:.5f}s vs "
        f"forced-vectorized {forced:.5f}s"
    )


def test_k8_vectorized_dispatch_beats_forced_exact(benchmark, monkeypatch):
    wl = ref_k8_workload()
    chosen = _timed_with_threshold(wl, ref_mod.VECTORIZE_MIN_K, monkeypatch)
    forced = _timed_with_threshold(wl, 99, monkeypatch)
    benchmark.extra_info.update({"vectorized_s": chosen, "exact_s": forced})
    benchmark(lambda: None)
    assert chosen <= forced * SLACK, (
        f"k=8 regressed below the exact path: vectorized {chosen:.4f}s vs "
        f"forced-exact {forced:.4f}s"
    )


def _ref_seconds(workload, *, on_kernel: bool) -> float:
    """Best-of-5 full REF runs on whichever backend the fleet picks,
    which must be the one the caller is timing."""
    members, grand = members_mask(workload, None)

    def run():
        r = RefRun(workload, members, grand, None)
        r.drive()
        assert (r.fleet.kernel is not None) == on_kernel

    run()  # warm caches before timing
    return best_of(run)


def test_k8_kernel_dispatch_beats_forced_engines(benchmark, monkeypatch):
    wl = ref_k8_workload()
    chosen = _ref_seconds(wl, on_kernel=True)
    monkeypatch.setattr(kernel_mod, "KERNEL_MIN_ENGINES", ENGINES_ONLY)
    forced = _ref_seconds(wl, on_kernel=False)
    benchmark.extra_info.update({"kernel_s": chosen, "engines_s": forced})
    benchmark(lambda: None)
    assert chosen <= forced * SLACK, (
        f"REF k=8 regressed below the per-engine fleet: kernel "
        f"{chosen:.4f}s vs forced-engines {forced:.4f}s"
    )


def _rand_oracle_seconds(
    workload, masks, times, backend: str, on_kernel: bool
) -> float:
    """Best-of-5 sweeps of the RAND value oracle in isolation: build the
    sampled prefix fleet, drive it to each decision time and read every
    coalition value -- the per-event work ``RandRun`` asks of its oracle
    -- on whichever backend ``backend`` picks, which must be the one the
    caller is timing."""

    def run():
        fleet = CoalitionFleet(workload, masks, backend=backend)
        for t in times:
            fleet.values_array(t, select=fifo_select)
        assert (fleet.kernel is not None) == on_kernel

    run()
    return best_of(run)


def _rand_oracle_masks(k: int, n_orderings: int) -> "list[int]":
    orderings = sample_member_orderings(
        np.arange(k), n_orderings, np.random.default_rng(0)
    )
    return sorted(m for m in SampledPrefixes(k, orderings).masks if m)


def test_rand_k8_oracle_kernel_dispatch_beats_forced_engines(benchmark):
    k = 8
    wl = random_workload(
        np.random.default_rng(8), n_orgs=k, n_jobs=8 * k, max_release=80,
        sizes=(1, 2, 5), machine_counts=[1] * k,
    )
    masks = _rand_oracle_masks(k, 75)
    assert len(masks) >= kernel_mod.KERNEL_MIN_ENGINES
    times = sorted({j.release for j in wl.jobs})
    chosen = _rand_oracle_seconds(wl, masks, times, "auto", True)
    forced = _rand_oracle_seconds(wl, masks, times, "engines", False)
    benchmark.extra_info.update(
        {"kernel_s": chosen, "engines_s": forced, "masks": len(masks)}
    )
    benchmark(lambda: None)
    assert chosen <= forced * SLACK, (
        f"RAND k=8 N=75 oracle regressed below the per-engine fleet: "
        f"kernel {chosen:.4f}s vs engines {forced:.4f}s"
    )


def test_rand_k5_oracle_engines_dispatch_beats_forced_kernel(benchmark):
    k = 5
    wl = random_workload(
        np.random.default_rng(5), n_orgs=k, n_jobs=200, max_release=400,
        sizes=(1, 2, 5, 20), machine_counts=[3, 2, 1, 1, 1],
    )
    masks = _rand_oracle_masks(k, 15)
    assert len(masks) < kernel_mod.KERNEL_MIN_ENGINES
    times = sorted({j.release for j in wl.jobs})
    chosen = _rand_oracle_seconds(wl, masks, times, "auto", False)
    forced = _rand_oracle_seconds(wl, masks, times, "kernel", True)
    benchmark.extra_info.update(
        {"engines_s": chosen, "kernel_s": forced, "masks": len(masks)}
    )
    benchmark(lambda: None)
    assert chosen <= forced * SLACK, (
        f"RAND k=5 N=15 oracle is faster on the kernel than on its "
        f"per-engine fleet: engines {chosen:.4f}s vs kernel {forced:.4f}s"
    )


def test_schedules_identical_across_dispatch(monkeypatch):
    """The dispatch is a pure performance choice: both paths must produce
    the identical REF schedule on both bench instances."""
    for wl in (k4_workload(), ref_k8_workload()):
        monkeypatch.setattr(ref_mod, "VECTORIZE_MIN_K", 0)
        vectorized = RefScheduler().run(wl).schedule
        monkeypatch.setattr(ref_mod, "VECTORIZE_MIN_K", 99)
        exact = RefScheduler().run(wl).schedule
        assert list(vectorized) == list(exact)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
