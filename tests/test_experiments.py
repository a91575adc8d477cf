"""Tests for the Section 7 experiment harness, tables and figures."""

import numpy as np
import pytest

from repro.experiments.figures import (
    FIGURE10_PAPER_SHAPE,
    figure2_numbers,
    figure2_schedule,
    figure7_numbers,
    figure10,
)
from repro.experiments.harness import (
    DEFAULT_SCALES,
    sample_instance,
    sample_window,
)
from repro.experiments.registry import paper_portfolio, scenario_spec
from repro.experiments.reporting import format_cell, render_pipeline, render_series
from repro.experiments.spec import ScenarioSpec
from repro.experiments.tables import (
    TABLE1_PAPER,
    TABLE2_PAPER,
    table1,
    table2,
)
from repro.sim.runner import evaluate_portfolio


class TestConfig:
    """The knobs ``ExperimentConfig`` (deleted, ISSUE 16) used to carry are
    ``ScenarioSpec`` fields and plain sampler parameters."""

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(family="synthetic", machine_dist="pareto")
        with pytest.raises(ValueError):
            table1(n_orgs=0)

    def test_scale_for(self):
        """``scale=None`` resolves to the trace's tuned default; an explicit
        scale wins."""

        def machines(trace, scale):
            rng = np.random.default_rng(0)
            return sample_window(trace, 100, rng, scale=scale)[1].n_machines

        for trace, default in DEFAULT_SCALES.items():
            assert machines(trace, None) == machines(trace, default)
        assert machines("RICC", 0.5) != machines("RICC", None)

    def test_default_algorithms_match_paper_rows(self):
        names = [a.name for a in paper_portfolio(100, 0)]
        assert names == [
            "RoundRobin",
            "Rand(N=15)",
            "DirectContr",
            "FairShare",
            "UtFairShare",
            "CurrFairShare",
        ]
        assert set(TABLE1_PAPER) == set(names)
        assert set(TABLE2_PAPER) == set(names)


class TestSampling:
    def test_sample_instance_deterministic(self):
        a = sample_instance(
            "LPC-EGEE", 1_000, 5, np.random.default_rng(7), scale=0.05
        )
        b = sample_instance(
            "LPC-EGEE", 1_000, 5, np.random.default_rng(7), scale=0.05
        )
        assert a == b

    def test_sample_instance_shape(self):
        wl = sample_instance(
            "LPC-EGEE", 1_000, 4, np.random.default_rng(0), scale=0.1
        )
        assert wl.n_orgs == 4
        assert all(j.release < 1_000 for j in wl.jobs)
        counts = wl.machine_counts()
        assert counts == tuple(sorted(counts, reverse=True))  # zipf

    def test_uniform_machine_dist(self):
        wl = sample_instance(
            "LPC-EGEE", 1_000, 4, np.random.default_rng(0), scale=0.1,
            machine_dist="uniform",
        )
        counts = wl.machine_counts()
        assert max(counts) - min(counts) <= 1


class TestRunExperiment:
    def test_tiny_experiment_end_to_end(self):
        """``table1`` is the ``synthetic`` family through ``run_pipeline``
        (``run_experiment`` and its result classes are deleted)."""
        result = table1(
            traces=("LPC-EGEE",),
            n_orgs=3,
            duration=600,
            n_repeats=2,
            scale=0.08,
            seed=1,
        )
        assert result.computed == 2
        algos = result.algorithms()
        assert "Rand(N=15)" in algos
        for alg in algos:
            mean, std = result.mean_std("LPC-EGEE", alg)
            assert mean >= 0 and std >= 0
        with pytest.raises(KeyError):
            result.mean_std("LPC-EGEE", "nope")

    def test_table2_is_the_table2_scenario(self):
        knobs = dict(
            traces=("LPC-EGEE",), n_orgs=3, duration=400, n_repeats=1,
            scale=0.08,
        )
        result = table2(**knobs)
        assert result.spec == scenario_spec("table2", **knobs)
        assert result.spec.seed == 1
        assert result.computed == 1
        assert "Rand(N=15)" in result.algorithms()

    def test_evaluate_portfolio_custom_algorithms(self):
        """Was ``test_run_instance_custom_algorithms``: ``run_instance`` is
        deleted, its body was this ``evaluate_portfolio`` call."""
        from repro.algorithms import GreedyFifoScheduler, RefScheduler

        wl = sample_instance(
            "LPC-EGEE", 400, 5, np.random.default_rng(2), scale=0.08
        )
        out = evaluate_portfolio(wl, 400, [GreedyFifoScheduler(400)])
        assert set(out["avg_delay"]) == {"GreedyFIFO"}
        # REF scored against itself is perfectly fair
        out2 = evaluate_portfolio(
            wl, 400, [RefScheduler(400)], RefScheduler(400)
        )
        assert out2["avg_delay"]["REF"] == 0.0


class TestReporting:
    def test_format_cell(self):
        assert format_cell(0.0, 0.0) == "0 ±0"
        assert format_cell(0.014, 0.01) == "0.014 ±0.010"
        assert format_cell(5.25, 11.0) == "5.25 ±11"
        assert format_cell(238.4, 353.0) == "238 ±353"

    def test_render_table(self):
        """Tables render through ``render_pipeline`` (``render_table`` is
        deleted with ``ExperimentResult``)."""
        result = table1(
            traces=("LPC-EGEE",), n_orgs=3, duration=400, n_repeats=1,
            scale=0.08, seed=3,
        )
        text = render_pipeline(result, title="test table")
        assert "test table" in text
        assert "LPC-EGEE" in text
        assert "FairShare" in text

    def test_render_series(self):
        text = render_series(
            [2, 3], {"A": [0.5, 1.0], "B": [1.5, 2.0]}, "orgs", "fig"
        )
        assert "orgs" in text and "A" in text
        with pytest.raises(ValueError):
            render_series([1], {"A": [1.0, 2.0]}, "x", "t")


class TestFigures:
    def test_figure2_caption_numbers(self):
        n = figure2_numbers()
        assert (n.psi_o1_t13, n.psi_o1_t14, n.flow_time_o1) == (262, 297, 70)
        assert (n.gain_without_j2, n.loss_j6_late, n.loss_drop_j9) == (
            4, -6, -10,
        )

    def test_figure2_schedule_utilizes_three_machines(self):
        sched = figure2_schedule()
        assert {e.machine for e in sched} == {0, 1, 2}
        assert sched.makespan() == 14

    def test_figure7(self):
        assert figure7_numbers() == (1.0, 0.75)

    def test_figure10_shape_is_declared(self):
        assert "Rand(N=15)" in FIGURE10_PAPER_SHAPE

    @pytest.mark.slow
    def test_figure10_tiny_run(self):
        xs, series = figure10(
            org_counts=(2, 3), duration=600, n_repeats=1, scale=0.08,
        )
        assert xs == [2, 3]
        for name, ys in series.items():
            assert len(ys) == 2
            assert all(y >= 0 for y in ys)
