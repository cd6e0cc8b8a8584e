"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_requires_failures(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig"])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--capacity", "400", "--counter", "dag", "info"]
        )
        assert args.capacity == 400
        assert args.counter == "dag"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ATT" in out
        assert "600" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Dallas" in out
        assert "Table III" in out

    def test_run_scenario(self, capsys):
        assert main(["run", "--failed", "13", "--algorithms", "pm,retroflow"]) == 0
        out = capsys.readouterr().out
        assert "scenario (13)" in out
        assert "pm" in out and "retroflow" in out

    def test_run_multi_failure(self, capsys):
        assert main(["run", "--failed", "13,20", "--algorithms", "pm,pg"]) == 0
        out = capsys.readouterr().out
        assert "(13, 20)" in out

    def test_fig_single_failure_fast_algorithms(self, capsys):
        assert main(["fig", "--failures", "1", "--algorithms", "pm,retroflow"]) == 0
        out = capsys.readouterr().out
        assert "1 controller failure(s)" in out
        assert "RetroFlow" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "--failed", "13,20", "--algorithms", "pm"]) == 0
        out = capsys.readouterr().out
        assert "recovery timeline" in out
        assert "compute done" in out

    def test_successive(self, capsys):
        assert main(["successive", "--order", "13,20", "--algorithm", "pm"]) == 0
        out = capsys.readouterr().out
        assert "(13, 20)" in out
        assert "fairness" in out

    def test_successive_passes_the_optimal_time_limit(self, capsys, monkeypatch):
        """``--optimal-time-limit`` bounds the exact solve of every stage
        (one stage, so the sweep runs in this process)."""
        from repro.baselines import base

        solve_optimal = base.get_algorithm("optimal")
        limits = []

        def spy(instance, time_limit_s):
            limits.append(time_limit_s)
            return solve_optimal(instance, time_limit_s=time_limit_s)

        monkeypatch.setitem(base._REGISTRY, "optimal", spy)
        argv = ["--optimal-time-limit", "7", "successive", "--order", "13",
                "--algorithm", "optimal"]
        assert main(argv) == 0
        assert limits == [7.0]
        assert "(13)" in capsys.readouterr().out
