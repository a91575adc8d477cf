"""Experiment subsystem: declarative scenarios over a shared pipeline.

Regenerates every table and figure of the paper's Section 7 — and any
registered scenario beyond them — through one engine:

* :mod:`repro.experiments.spec` — frozen :class:`ScenarioSpec` value
  objects (content-hashable, picklable, instance-enumerating);
* :mod:`repro.experiments.registry` — pluggable scenario families,
  algorithm portfolios and named scenarios;
* :mod:`repro.experiments.pipeline` — the parallel / cached / resumable
  execution engine (``run_pipeline``);
* :mod:`repro.experiments.harness` — the paper's instance sampler the
  ``synthetic``/``churn`` families call;
* :mod:`~repro.experiments.tables`, :mod:`~repro.experiments.figures`,
  :mod:`~repro.experiments.reporting` — the paper-protocol consumers
  layered on top.
"""

from .figures import (
    FIGURE10_PAPER_SHAPE,
    Figure2Numbers,
    figure2_numbers,
    figure2_schedule,
    figure7_numbers,
    figure10,
)
from .harness import DEFAULT_SCALES, sample_instance
from .pipeline import (
    PipelineInstanceResult,
    PipelineResult,
    StreamingStats,
    run_instance_spec,
    run_pipeline,
)
from .registry import (
    FAMILIES,
    PORTFOLIO_SPECS,
    PORTFOLIOS,
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    register_family,
    register_portfolio,
    register_portfolio_specs,
    register_scenario,
    scenario_spec,
)
from .reporting import format_cell, render_pipeline, render_series
from .spec import InstanceSpec, ScenarioSpec
from .tables import TABLE1_PAPER, TABLE2_PAPER, table1, table2

__all__ = [
    "DEFAULT_SCALES",
    "FAMILIES",
    "FIGURE10_PAPER_SHAPE",
    "Figure2Numbers",
    "InstanceSpec",
    "PORTFOLIOS",
    "PORTFOLIO_SPECS",
    "PipelineInstanceResult",
    "PipelineResult",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "StreamingStats",
    "TABLE1_PAPER",
    "TABLE2_PAPER",
    "figure10",
    "figure2_numbers",
    "figure2_schedule",
    "figure7_numbers",
    "format_cell",
    "get_scenario",
    "list_scenarios",
    "register_family",
    "register_portfolio",
    "register_portfolio_specs",
    "register_scenario",
    "render_pipeline",
    "render_series",
    "run_instance_spec",
    "run_pipeline",
    "sample_instance",
    "scenario_spec",
    "table1",
    "table2",
]
