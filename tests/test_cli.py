"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_all_experiments_registered(self):
        for name in ("fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
                     "samples", "lptime"):
            assert name in EXPERIMENTS


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "Figure 3" in out
        assert out.count("\n") == len(EXPERIMENTS)

    def test_run_prints_table(self, capsys, monkeypatch):
        monkeypatch.setitem(
            EXPERIMENTS, "fig4",
            (lambda: [{"a": 1, "b": 2.0}], "Figure 4: effect of variance"),
        )
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "a" in out and "1" in out

    def test_run_writes_out_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setitem(
            EXPERIMENTS, "fig4",
            (lambda: [{"a": 1}], "Figure 4: effect of variance"),
        )
        target = tmp_path / "table.txt"
        assert main(["run", "fig4", "--out", str(target)]) == 0
        assert "Figure 4" in target.read_text()

    def test_run_all_uses_every_experiment(self, capsys, monkeypatch):
        for name in list(EXPERIMENTS):
            monkeypatch.setitem(
                EXPERIMENTS, name,
                (lambda name=name: [{"id": name}], f"title {name}"),
            )
        assert main(["run", "all"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert f"title {name}" in out


class TestChartFlag:
    def test_chart_appended(self, capsys, monkeypatch):
        from repro.cli import EXPERIMENTS, main

        monkeypatch.setitem(
            EXPERIMENTS, "fig4",
            (
                lambda: [
                    {"algorithm": "a", "energy_mj": 1.0, "accuracy": 0.2},
                    {"algorithm": "a", "energy_mj": 2.0, "accuracy": 0.8},
                ],
                "Figure 4: effect of variance",
            ),
        )
        assert main(["run", "fig4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "(chart)" in out
        assert "o=a" in out

    def test_chart_skipped_without_numeric_columns(self, capsys, monkeypatch):
        from repro.cli import EXPERIMENTS, main

        monkeypatch.setitem(
            EXPERIMENTS, "fig4",
            (lambda: [{"trial": 1}], "Figure 4: effect of variance"),
        )
        assert main(["run", "fig4", "--chart"]) == 0
        assert "(chart)" not in capsys.readouterr().out


class TestStats:
    DEMO = ["stats", "--demo", "--epochs", "2", "--nodes", "16"]

    def test_stats_requires_demo(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats"])
        assert "--demo" in capsys.readouterr().err

    def test_demo_prints_report(self, capsys):
        assert main(self.DEMO) == 0
        out = capsys.readouterr().out
        assert "repro stats (demo run)" in out
        assert "counters" in out
        # per-planner LP solve-time histograms and engine energy
        # counters are the acceptance bar for the instrumented run
        assert "lp.solve_seconds.prospector-lp-lf" in out
        assert "engine.energy_mj" in out
        assert "plan_installed" in out

    def test_demo_json_round_trips(self, capsys, tmp_path):
        from repro.obs import from_json

        target = tmp_path / "stats.json"
        assert main(self.DEMO + ["--json", "--out", str(target)]) == 0
        restored = from_json(target.read_text())
        assert restored.metrics.counter("lp.solves").value > 0
        assert restored.spans.find("plan")
        assert restored.spans.find("plan_installed")

    def test_demo_prints_energy_ledger(self, capsys):
        assert main(self.DEMO) == 0
        out = capsys.readouterr().out
        assert "energy ledger" in out
        assert "hottest nodes" in out
        assert "burn-down" in out
        assert "network lifetime" in out

    def test_service_demo_reports_the_wire_phase(self, capsys):
        assert main(self.DEMO + ["--service"]) == 0
        out = capsys.readouterr().out
        table = out.split("wire per shard\n", 1)[1]
        header, __, row = table.splitlines()[:3]
        cells = dict(zip(header.split(), row.split()))
        assert set(cells) == {
            "shard", "requests", "request_bytes", "reply_bytes"
        }
        assert int(cells["requests"]) > 0
        assert int(cells["request_bytes"]) > 0
        # the wire metrics carry no per-protocol suffix
        for name in ("connections", "request_bytes", "reply_bytes"):
            assert re.search(rf"^service\.wire\.{name}\s", out, re.M)


class TestTrace:
    DEMO = ["trace", "--demo", "--epochs", "2", "--nodes", "16"]

    def test_trace_requires_demo(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace"])
        assert "--demo" in capsys.readouterr().err

    def test_demo_prints_span_tree_and_energy(self, capsys):
        assert main(self.DEMO) == 0
        out = capsys.readouterr().out
        # the root span and its contiguous phases
        assert "run (epochs=2" in out
        assert "phase.setup" in out
        assert "phase.plan_sweep" in out
        assert "phase.engine" in out
        # planner stack spans nested under the phases
        assert "plan (planner=" in out
        assert "solve (" in out
        assert "energy ledger" in out

    def test_chrome_export_is_valid_trace_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        assert main(self.DEMO + ["--chrome", str(target)]) == 0
        doc = json.loads(target.read_text())
        assert doc["traceEvents"][0]["ph"] == "M"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"run", "phase.setup", "phase.plan_sweep",
                "phase.engine"} <= names
        assert all(e["dur"] >= 0 for e in complete)

    def test_prom_export_has_ledger_gauges(self, capsys, tmp_path):
        target = tmp_path / "metrics.prom"
        assert main(self.DEMO + ["--prom", str(target)]) == 0
        text = target.read_text()
        assert "# TYPE repro_energy_ledger_total_mj gauge" in text
        assert "repro_lp_solves_total" in text

    def test_out_writes_flame_report(self, capsys, tmp_path):
        target = tmp_path / "flame.txt"
        assert main(self.DEMO + ["--out", str(target)]) == 0
        assert "phase.engine" in target.read_text()


class TestPhaseCoverage:
    def test_phase_spans_cover_the_root_within_ten_percent(self):
        """ISSUE acceptance: the demo span tree's per-phase wall times
        must sum to within 10% of the root span."""
        from repro.cli import _stats_demo

        obs, *__ = _stats_demo(epochs=3, nodes=16)
        (root,) = obs.spans.roots
        assert root.name == "run"
        phase_total = sum(
            child.duration_s for child in root.children
            if child.name.startswith("phase.")
        )
        assert phase_total > 0
        assert abs(root.duration_s - phase_total) <= 0.1 * root.duration_s
