"""Tests for the text visualization helpers and the CLI."""

import pytest

from repro.algorithms import GreedyFifoScheduler, RefScheduler
from repro.cli import build_parser, main
from repro.sim.runner import compare_algorithms
from repro.viz import fairness_report, gantt, sparkline, utilities_bar

from .conftest import make_workload


class TestViz:
    def wl(self):
        return make_workload([1, 1], [(0, 0, 3), (0, 1, 2), (2, 1, 4)])

    def test_gantt(self):
        result = GreedyFifoScheduler().run(self.wl())
        chart = gantt(result.schedule, 2, 8)
        lines = chart.splitlines()
        assert len(lines) == 3  # axis + 2 machines
        assert "1" in chart and "2" in chart
        with pytest.raises(ValueError):
            gantt(result.schedule, 0, 8)

    def test_gantt_content(self):
        result = GreedyFifoScheduler().run(self.wl())
        chart = gantt(result.schedule, 2, 8)
        m0 = chart.splitlines()[1]
        assert m0.startswith("  M0 ")
        # org 0's size-3 job occupies machine 0 slots 0..2
        assert "|111" in m0

    def test_utilities_bar(self):
        result = GreedyFifoScheduler().run(self.wl())
        bars = utilities_bar(result, 8)
        assert "O(0)" in bars and "O(1)" in bars
        assert "#" in bars

    def test_fairness_report(self):
        wl = self.wl()
        comp = compare_algorithms(
            [GreedyFifoScheduler(10)], RefScheduler(10), wl, 10
        )
        report = fairness_report(comp)
        assert "GreedyFIFO" in report
        assert "avg delay" in report

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0, 5, 10])
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for argv in (
            ["figure2"],
            ["figure7"],
            ["gap"],
            ["gadget", "1,2", "2"],
            ["demo"],
            ["table1"],
            ["table2"],
            ["figure10"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_figure2_command(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "262" in out and "297" in out

    def test_figure7_command(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "100%" in out and "75%" in out

    def test_gap_command(self, capsys):
        assert main(["gap", "--max-orgs", "8"]) == 0
        out = capsys.readouterr().out
        assert "m=    8" in out

    def test_gadget_command(self, capsys):
        assert main(["gadget", "1,2", "2"]) == 0
        out = capsys.readouterr().out
        assert "exists: True" in out

    @pytest.mark.slow
    def test_demo_command(self, capsys):
        assert main(["demo", "--duration", "800", "--orgs", "3"]) == 0
        out = capsys.readouterr().out
        assert "fairness vs REF" in out

    @pytest.mark.slow
    def test_figure10_command(self, capsys):
        assert main(["figure10", "--orgs", "2,3", "--duration", "600",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "organizations" in out

    @pytest.mark.slow
    def test_run_table1_batched_prints_the_no_batch_tables(self, capsys):
        """``repro run`` reaches the pipeline with and without the
        cross-instance batched REF kernel: the tables are the same, only
        the closing timing line differs."""
        argv = ["run", "table1", "--duration", "5000", "--repeats", "1",
                "--quiet"]
        outs = []
        for extra in ([], ["--no-batch"]):
            assert main(argv + extra) == 0
            outs.append(capsys.readouterr().out.rstrip("\n").splitlines())
        batched, serial = outs
        assert batched[-1].startswith("4 computed + 0 cached instances in ")
        assert batched[0] == "table1 (synthetic)"
        assert batched[:-1] == serial[:-1]

    @pytest.mark.parametrize(
        "argv", [["table1"], ["table2"], ["figure10"], ["run", "table1"]]
    )
    def test_pipeline_flags_reach_run_pipeline(
        self, argv, monkeypatch, tmp_path
    ):
        """Every pipeline flag is passed on, and a command's defaults are
        its scenario's: one definition per paper experiment."""
        from repro.experiments import pipeline
        from repro.experiments.registry import get_scenario

        class Captured(Exception):
            pass

        seen = {}

        def capture(spec, **kwargs):
            seen.update(kwargs, spec=spec)
            raise Captured

        monkeypatch.setattr(pipeline, "run_pipeline", capture)
        cache, store = str(tmp_path / "cache"), str(tmp_path / "store")
        with pytest.raises(Captured):
            main(argv + ["--workers", "2", "--cache-dir", cache,
                         "--no-resume", "--no-batch", "--store-dir", store])
        seen.pop("progress", None)  # `run` only
        assert seen.pop("spec") == get_scenario(argv[-1]).spec
        assert seen == {
            "workers": 2, "cache_dir": cache, "resume": False,
            "batch": False, "store_dir": store,
        }

    def test_table1_command_renders(self, capsys):
        assert main(["table1", "--duration", "1000", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "table1 (scaled reproduction)" in out
        assert "CurrFairShare" in out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "--orgs", "2,x"], "--orgs"),
            (["figure10", "--orgs", "2,3.5"], "--orgs"),
            (["run", "table1", "--org-counts", "2,,4"], "--org-counts"),
            (["gadget", "1,a", "2"], "values"),
        ],
    )
    def test_int_list_flags_refuse_bad_input_as_usage_errors(
        self, argv, flag, capsys
    ):
        """One argparse ``type=`` parses every comma-separated int flag:
        bad input is a usage error (exit 2) naming the flag, not a
        ``ValueError`` traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated integers" in err
