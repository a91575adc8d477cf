"""Ablation A2: exact Shapley vs Monte-Carlo sampling on scheduling games.

Two questions the paper's complexity story raises in practice:

* cost: exact computation is Theta(2^k) coalition values (FPT in k,
  Cor. 3.5) -- how does wall-clock grow with k?
* accuracy: how fast does the sampling estimator close in on the exact
  values, relative to the Hoeffding bound of Theorem 5.6?
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.ref import RefScheduler
from repro.shapley.exact import shapley_exact
from repro.shapley.games import SchedulingGame
from repro.shapley.sampling import hoeffding_samples, shapley_sample

from .bench_engine import ref_k8_workload
from .conftest import FULL, once
from tests.conftest import random_workload

KS = (2, 3, 4, 5, 6, 7, 8) if FULL else (2, 3, 4, 5, 6)


def test_ref_recursion_k8(benchmark):
    """Exact Shapley contributions through the full REF recursion at k=8:
    the CoalitionFleet + vectorized-UpdateVals hot path (the Fig. 10 / Cor.
    3.5 FPT machinery; >= 2x vs the seed implementation)."""
    wl = ref_k8_workload()

    def run():
        return RefScheduler(collect_contributions=True).run(wl)

    result = benchmark(run)
    phi = result.meta["contributions"]
    # efficiency: the exact shares divide the grand value at the eval time
    assert sum(phi) == result.value(result.meta["contributions_time"])


def test_exact_cost_vs_k(benchmark):
    def sweep():
        rows = []
        for k in KS:
            rng = np.random.default_rng(k)
            wl = random_workload(
                rng,
                n_orgs=k,
                n_jobs=10 * k,
                max_release=30,
                sizes=(1,),
                machine_counts=[1] * k,
            )
            game = SchedulingGame(wl, t=40)
            t0 = time.perf_counter()
            phi = shapley_exact(game, k)
            elapsed = time.perf_counter() - t0
            rows.append((k, elapsed, float(sum(phi))))
        return rows

    rows = once(benchmark, sweep)
    print()
    print("=" * 60)
    print("exact Shapley cost vs k (unit-job scheduling game)")
    print(f"{'k':>3}{'seconds':>12}{'v(grand)':>12}")
    for k, sec, total in rows:
        print(f"{k:>3}{sec:>12.4f}{total:>12.1f}")
    print("=" * 60)
    # efficiency axiom: shares sum to the grand value
    for k, _, total in rows:
        rng = np.random.default_rng(k)
        wl = random_workload(
            rng, n_orgs=k, n_jobs=10 * k, max_release=30, sizes=(1,),
            machine_counts=[1] * k,
        )
        assert total == SchedulingGame(wl, t=40)((1 << k) - 1)


def test_sampling_error_vs_hoeffding(benchmark):
    k = 5
    rng = np.random.default_rng(7)
    wl = random_workload(
        rng, n_orgs=k, n_jobs=60, max_release=30, sizes=(1,),
        machine_counts=[1] * k,
    )
    game = SchedulingGame(wl, t=40)
    exact = [float(p) for p in shapley_exact(game, k)]
    v_grand = float(game((1 << k) - 1))
    ns = (4, 16, 64, 256) if not FULL else (4, 16, 64, 256, 1024)

    def sweep():
        rows = []
        for n in ns:
            errs = []
            for seed in range(5):
                est = shapley_sample(
                    game, k, n, np.random.default_rng(seed)
                )
                errs.append(
                    sum(abs(a - b) for a, b in zip(est, exact)) / v_grand
                )
            rows.append((n, float(np.mean(errs))))
        return rows

    rows = once(benchmark, sweep)
    print()
    print("=" * 64)
    print("sampling error (Manhattan, relative to v) vs sample count")
    print(f"{'N':>6}{'mean rel. error':>18}{'Hoeffding eps for N':>22}")
    for n, err in rows:
        # invert Theorem 5.6: eps(N) = k * sqrt(ln(k/(1-lam))/N), lam=0.9
        eps = k * np.sqrt(np.log(k / 0.1) / n)
        print(f"{n:>6}{err:>18.4f}{eps:>22.3f}")
    n_bound = hoeffding_samples(k, 0.5, 0.9)
    print(f"Theorem 5.6 sample bound for eps=0.5, lambda=0.9: N = {n_bound}")
    print("=" * 64)
    # error decreases with N and stays far below the (loose) bound
    errs = [e for _, e in rows]
    assert errs[-1] <= errs[0]
    for n, err in rows:
        eps = k * np.sqrt(np.log(k / 0.1) / n)
        assert err <= eps
