"""Table 2 (paper Section 7.3): the Table 1 protocol on 10x longer windows.

The paper's point: unfairness *grows* with the horizon -- static target
shares drift ever further from true (dynamic) contributions, so on long
traces the gap between distributive fairness and Shapley fairness widens.

Quick mode: duration 20,000 vs Table 1's 5,000 (4x) to keep runtime sane.
Full mode: the paper's 500,000.
"""

from __future__ import annotations

from repro.experiments.reporting import render_pipeline
from repro.experiments.tables import TABLE2_PAPER, table1, table2

from .conftest import FULL, once


def test_table2(benchmark):
    if FULL:
        result = once(
            benchmark, table2, duration=500_000, n_repeats=25, seed=1
        )
        short = table1(duration=50_000, n_repeats=25, seed=1)
    else:
        result = once(benchmark, table2, duration=20_000, n_repeats=2, seed=1)
        short = table1(duration=5_000, n_repeats=2, seed=1)

    print()
    print("=" * 72)
    print("Table 2 -- avg delay over the longer window, reproduced")
    print(render_pipeline(result))
    print()
    print("paper's published means (full-size traces):")
    header = "            " + "".join(
        t.rjust(16) for t in result.spec.traces
    )
    print(header)
    for alg, row in TABLE2_PAPER.items():
        cells = "".join(f"{row[t]:>16g}" for t in result.spec.traces)
        print(f"{alg:<12}{cells}")
    print("=" * 72)

    # Headline claim: for the contended traces, unfairness on the long
    # window exceeds the short window for the non-Shapley algorithms.
    grew = 0
    checked = 0
    for trace in ("LPC-EGEE", "RICC"):
        for alg in ("RoundRobin", "FairShare", "CurrFairShare"):
            long_m = result.mean_std(trace, alg)[0]
            short_m = short.mean_std(trace, alg)[0]
            checked += 1
            if long_m >= short_m:
                grew += 1
    assert grew >= checked // 2, f"unfairness grew only in {grew}/{checked}"
