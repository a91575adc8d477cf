"""Tables 1 and 2 of the paper: average unjustified delay per algorithm.

Table 1: duration 5*10^4, Table 2: duration 5*10^5 -- same protocol, 10x
longer windows.  The paper's headline observations both tables support:

* RAND is the most Shapley-fair polynomial algorithm, DIRECTCONTR next;
* FAIRSHARE (the industry standard) trails the contribution-tracking
  algorithms; ROUNDROBIN is far worse;
* all gaps grow with the window length (Table 2 >> Table 1), i.e. static
  shares drift ever further from true contributions on long horizons.

Both run here in scaled form by default (the ``table1`` and ``table2``
scenarios of :mod:`repro.experiments.registry`); pass ``scale=1.0`` and
the paper's durations/repeats to replicate full-size (hours of CPU).
"""

from __future__ import annotations

from .pipeline import PipelineResult, run_scenario

__all__ = ["table1", "table2", "TABLE1_PAPER", "TABLE2_PAPER"]

#: The paper's Table 1 (duration 5*10^4): mean avg-delay per trace.
TABLE1_PAPER: dict[str, dict[str, float]] = {
    "RoundRobin": {
        "LPC-EGEE": 238, "PIK-IPLEX": 6, "SHARCNET-Whale": 145, "RICC": 2839,
    },
    "Rand(N=15)": {
        "LPC-EGEE": 8, "PIK-IPLEX": 0.014, "SHARCNET-Whale": 6, "RICC": 162,
    },
    "DirectContr": {
        "LPC-EGEE": 5, "PIK-IPLEX": 0.02, "SHARCNET-Whale": 10, "RICC": 537,
    },
    "FairShare": {
        "LPC-EGEE": 16, "PIK-IPLEX": 0.3, "SHARCNET-Whale": 13, "RICC": 626,
    },
    "UtFairShare": {
        "LPC-EGEE": 16, "PIK-IPLEX": 0.3, "SHARCNET-Whale": 38, "RICC": 515,
    },
    "CurrFairShare": {
        "LPC-EGEE": 87, "PIK-IPLEX": 0.3, "SHARCNET-Whale": 145, "RICC": 1231,
    },
}

#: The paper's Table 2 (duration 5*10^5).
TABLE2_PAPER: dict[str, dict[str, float]] = {
    "RoundRobin": {
        "LPC-EGEE": 4511, "PIK-IPLEX": 242, "SHARCNET-Whale": 404, "RICC": 10850,
    },
    "Rand(N=15)": {
        "LPC-EGEE": 562, "PIK-IPLEX": 1.3, "SHARCNET-Whale": 26, "RICC": 771,
    },
    "DirectContr": {
        "LPC-EGEE": 410, "PIK-IPLEX": 0.2, "SHARCNET-Whale": 60, "RICC": 1808,
    },
    "FairShare": {
        "LPC-EGEE": 575, "PIK-IPLEX": 2.3, "SHARCNET-Whale": 94, "RICC": 2746,
    },
    "UtFairShare": {
        "LPC-EGEE": 888, "PIK-IPLEX": 1.2, "SHARCNET-Whale": 120, "RICC": 4963,
    },
    "CurrFairShare": {
        "LPC-EGEE": 1082, "PIK-IPLEX": 2.2, "SHARCNET-Whale": 180, "RICC": 5387,
    },
}


def table1(**overrides) -> PipelineResult:
    """Regenerate Table 1: the ``table1`` scenario (scaled; paper-size:
    ``duration=50_000, n_repeats=100, scale=1.0``).  ``overrides`` are
    :func:`~repro.experiments.pipeline.run_scenario` keywords: spec
    fields, or ``workers``/``cache_dir``/``batch``/... for the pipeline
    (results are identical at any worker count).  Render with
    :func:`~repro.experiments.reporting.render_pipeline`."""
    return run_scenario("table1", **overrides)


def table2(**overrides) -> PipelineResult:
    """Regenerate Table 2: the ``table2`` scenario, the Table 1 protocol
    on longer windows (paper-size: ``duration=500_000, n_repeats=100,
    scale=1.0``)."""
    return run_scenario("table2", **overrides)
