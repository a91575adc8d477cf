#!/usr/bin/env python
"""Grid consortium: the paper's motivating scenario, end to end.

Five organizations (think university compute centers, as in Grid'5000 /
PlanetLab / EGEE) federate their clusters: asymmetric machine endowments
(Zipf), bursty per-user demand, peak loads offloaded to partners' idle
machines.  We generate an LPC-EGEE-like synthetic trace, run the full
algorithm portfolio -- the exact REF benchmark, the randomized RAND, the
DIRECTCONTR heuristic, the fair share family and round robin -- and rank
them by the paper's unfairness metric.

Run:  python examples/grid_consortium.py [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import RefScheduler, compare_algorithms
from repro.experiments.harness import sample_instance
from repro.experiments.registry import paper_portfolio


def main(seed: int = 7) -> None:
    duration = 4_000
    rng = np.random.default_rng(seed)
    workload = sample_instance(
        "LPC-EGEE", duration, 5, rng, machine_dist="zipf"
    )

    print("consortium instance")
    print(f"  {workload.stats()}")
    print(f"  machine endowments (Zipf): {workload.machine_counts()}")
    print(f"  jobs per org: "
          f"{[len(workload.jobs_of(u)) for u in range(workload.n_orgs)]}")
    print()

    comparison = compare_algorithms(
        paper_portfolio(duration, seed),
        RefScheduler(horizon=duration),
        workload,
        duration,
    )

    print(f"{'algorithm':<16}{'delta_psi':>14}{'avg delay':>12}{'seconds':>10}")
    for name in comparison.ranking():
        o = comparison.by_name(name)
        print(
            f"{o.algorithm:<16}{o.delta_psi:>14.0f}"
            f"{o.avg_delay:>12.2f}{o.wall_time_s:>10.2f}"
        )

    print()
    print("reference (REF) per-organization utilities at the horizon:")
    ref_psi = comparison.reference.utilities(duration)
    for org in workload.organizations:
        print(f"  {org.name}: machines={org.machines:<3} psi={ref_psi[org.id]}")

    best = comparison.ranking()[0]
    print()
    print(
        f"most Shapley-fair polynomial algorithm on this instance: {best} "
        f"(avg delay {comparison.by_name(best).avg_delay:.2f} time units/unit work)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
