"""Tests for the benchmark perf-regression gate (benchmarks/regression_gate.py).

The gate is a stdlib-only script living outside the package, so it is
loaded by file path.  The acceptance bar from the ISSUE: the gate must
pass on the committed baselines and demonstrably fail when a 2x
slowdown is injected into a fresh payload.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

GATE_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "regression_gate.py"
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("regression_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()


def payload(quick=False, simplex_speedup=6.0, highs_speedup=1.2):
    return {
        "benchmark": "lpsweep",
        "quick": quick,
        "rows": [
            {
                "backend": "pure-simplex",
                "budgets": 8,
                "warm_hits": 7,
                "sweep_s": 1.0,
                "cold_s": simplex_speedup,
                "speedup": simplex_speedup,
            },
            {
                "backend": "scipy-highs",
                "budgets": 8,
                "warm_hits": 0,
                "sweep_s": 0.08,
                "cold_s": 0.08 * highs_speedup,
                "speedup": highs_speedup,
            },
        ],
        "acceptance": {
            "simplex_sweep_speedup_min": 3.0,
            "enforced": not quick,
        },
    }


def write_pair(tmp_path, fresh, baseline):
    results = tmp_path / "results"
    baselines = tmp_path / "baselines"
    results.mkdir(exist_ok=True)
    baselines.mkdir(exist_ok=True)
    (results / "BENCH_lpsweep.json").write_text(json.dumps(fresh))
    suffix = ".quick.json" if baseline.get("quick") else ".json"
    (baselines / f"BENCH_lpsweep{suffix}").write_text(json.dumps(baseline))
    return results, baselines


class TestRowPairing:
    def test_string_fields_key_rows(self):
        rows = payload()["rows"]
        assert gate.row_key_fields(rows) == ["backend"]

    def test_int_fields_appended_until_unique(self):
        rows = [
            {"formulation": "lp-lf", "n": 20, "m": 10, "speedup_cold": 4.0},
            {"formulation": "lp-lf", "n": 60, "m": 25, "speedup_cold": 10.0},
            {"formulation": "lp-no-lf", "n": 20, "m": 10, "speedup_cold": 2.0},
        ]
        assert gate.row_key_fields(rows) == ["formulation", "n"]

    def test_only_speedup_fields_are_compared(self):
        rows = payload()["rows"]
        assert gate._ratio_fields(rows) == ["speedup"]


class TestComparePayload:
    def test_identical_payloads_pass(self):
        checks = gate.compare_payload(payload(), payload())
        assert checks
        assert all(c["passed"] for c in checks)

    def test_injected_2x_slowdown_fails(self):
        checks = gate.compare_payload(
            payload(simplex_speedup=3.0), payload(simplex_speedup=6.0)
        )
        failed = [c for c in checks if not c["passed"]]
        assert len(failed) == 1
        assert failed[0]["kind"] == "regression"
        assert failed[0]["metric"] == "speedup"
        assert "pure-simplex" in failed[0]["row"]

    def test_slowdown_within_tolerance_passes(self):
        checks = gate.compare_payload(
            payload(simplex_speedup=5.0), payload(simplex_speedup=6.0),
            tolerance=0.25,
        )
        assert all(c["passed"] for c in checks)

    def test_legacy_acceptance_minimum_enforced(self):
        # 2.0 survives the 25% regression bar against a 2.2 baseline but
        # violates the folded simplex_sweep_speedup_min of 3.0
        checks = gate.compare_payload(
            payload(simplex_speedup=2.0), payload(simplex_speedup=2.2)
        )
        failed = [c for c in checks if not c["passed"]]
        assert [c["kind"] for c in failed] == ["minimum"]
        assert failed[0]["limit"] == 3.0

    def test_baseline_acceptance_survives_fresh_edit(self):
        # dropping the bar from the fresh payload must not disable it:
        # the baseline copy is authoritative
        fresh = payload(simplex_speedup=2.0)
        fresh["acceptance"] = {"enforced": False}
        checks = gate.compare_payload(fresh, payload(simplex_speedup=2.2))
        assert any(
            c["kind"] == "minimum" and not c["passed"] for c in checks
        )

    def test_quick_payload_skips_unenforced_minima(self):
        checks = gate.compare_payload(
            payload(quick=True, simplex_speedup=2.0),
            payload(quick=True, simplex_speedup=2.0),
        )
        assert all(c["passed"] for c in checks)
        assert all(c["kind"] == "regression" for c in checks)

    def test_structured_minima_and_maxima(self):
        fresh = {
            "benchmark": "obs_overhead",
            "quick": False,
            "rows": [{"workload": "plan", "overhead_fraction": 0.05}],
            "acceptance": {
                "maxima": [{"metric": "overhead_fraction", "max": 0.02}],
                "enforced": True,
            },
        }
        checks = gate.compare_payload(fresh, fresh)
        (check,) = [c for c in checks if c["kind"] == "maximum"]
        assert not check["passed"]
        assert check["limit"] == 0.02

    def test_structured_where_selects_row(self):
        rows = [
            {"formulation": "lp-lf", "n": 20, "speedup_cold": 2.0},
            {"formulation": "lp-lf", "n": 60, "speedup_cold": 10.0},
        ]
        fresh = {
            "benchmark": "fastpath", "quick": False, "rows": rows,
            "acceptance": {
                "minima": [
                    {"metric": "speedup_cold",
                     "where": {"formulation": "lp-lf", "n": 60},
                     "min": 5.0}
                ],
                "enforced": True,
            },
        }
        checks = gate.compare_payload(fresh, fresh)
        minima = [c for c in checks if c["kind"] == "minimum"]
        assert len(minima) == 1  # only the n=60 row is held to the bar
        assert minima[0]["passed"]

    def test_missing_baseline_row_fails(self):
        fresh = payload()
        fresh["rows"] = fresh["rows"][:1]  # scipy-highs row vanished
        failed = [
            c for c in gate.compare_payload(fresh, payload())
            if not c["passed"]
        ]
        assert any("missing from fresh run" in c["detail"] for c in failed)

    def test_unmatched_acceptance_bar_is_a_coverage_failure(self):
        fresh = payload()
        fresh["acceptance"]["minima"] = [
            {"metric": "speedup", "where": {"backend": "gone"}, "min": 1.0}
        ]
        checks = gate.compare_payload(fresh, fresh)
        assert any(
            c["kind"] == "coverage" and not c["passed"] for c in checks
        )


class TestRunGate:
    def test_pass_and_exit_codes(self, tmp_path, capsys):
        results, baselines = write_pair(tmp_path, payload(), payload())
        code = gate.main(
            ["--results-dir", str(results), "--baseline-dir", str(baselines)]
        )
        assert code == 0
        assert "checks passed" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        results, baselines = write_pair(
            tmp_path, payload(simplex_speedup=3.0), payload(simplex_speedup=6.0)
        )
        code = gate.main(
            ["--results-dir", str(results), "--baseline-dir", str(baselines)]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_quick_flag_selects_quick_baseline(self, tmp_path):
        results, baselines = write_pair(
            tmp_path, payload(quick=True), payload(quick=True)
        )
        checks = gate.run_gate(results_dir=results, baseline_dir=baselines)
        assert checks and all(c["passed"] for c in checks)

    def test_quick_selector_leaves_full_payloads_out(self, tmp_path):
        # a full payload that would fail sits beside a passing quick one
        results, baselines = write_pair(
            tmp_path, payload(simplex_speedup=1.0), payload()
        )
        (results / "BENCH_lpsweep.quick.json").write_text(
            json.dumps(payload(quick=True))
        )
        (baselines / "BENCH_lpsweep.quick.json").write_text(
            json.dumps(payload(quick=True))
        )
        assert not all(
            c["passed"]
            for c in gate.run_gate(results_dir=results, baseline_dir=baselines)
        )
        checks = gate.run_gate(
            results_dir=results, baseline_dir=baselines, quick=True
        )
        assert checks and all(c["passed"] for c in checks)
        assert gate.main(
            ["--quick", "--results-dir", str(results),
             "--baseline-dir", str(baselines), "lpsweep"]
        ) == 0
        (results / "BENCH_lpsweep.quick.json").unlink()
        (check,) = gate.run_gate(
            results_dir=results, baseline_dir=baselines, names=["lpsweep"],
            quick=True,
        )
        assert check["row"].endswith("BENCH_lpsweep.quick.json")
        assert "run the benchmark first" in check["detail"]

    def test_full_selector_leaves_quick_payloads_out(self, tmp_path):
        # a stray local --quick payload that would fail the gate sits
        # beside a passing full one
        results, baselines = write_pair(tmp_path, payload(), payload())
        (results / "BENCH_lpsweep.quick.json").write_text(
            json.dumps(payload(quick=True, simplex_speedup=1.0))
        )
        (baselines / "BENCH_lpsweep.quick.json").write_text(
            json.dumps(payload(quick=True))
        )
        checks = gate.run_gate(results_dir=results, baseline_dir=baselines)
        assert checks and all(c["passed"] for c in checks)
        assert gate.main(
            ["--results-dir", str(results), "--baseline-dir", str(baselines)]
        ) == 0
        quick = gate.run_gate(
            results_dir=results, baseline_dir=baselines, quick=True
        )
        assert quick and not all(c["passed"] for c in quick)

    def test_mode_mismatch_fails(self, tmp_path):
        # a quick baseline cannot vouch for a full-size run
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir(), baselines.mkdir()
        (results / "BENCH_lpsweep.json").write_text(json.dumps(payload()))
        (baselines / "BENCH_lpsweep.json").write_text(
            json.dumps(payload(quick=True))
        )
        (check,) = gate.run_gate(results_dir=results, baseline_dir=baselines)
        assert not check["passed"]
        assert "quick flag" in check["detail"]

    def test_missing_baseline_fails(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir(), baselines.mkdir()
        (results / "BENCH_lpsweep.json").write_text(json.dumps(payload()))
        (check,) = gate.run_gate(results_dir=results, baseline_dir=baselines)
        assert not check["passed"]
        assert "no committed baseline" in check["detail"]

    def test_named_benchmark_without_result_fails(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir(), baselines.mkdir()
        (check,) = gate.run_gate(
            results_dir=results, baseline_dir=baselines, names=["lpsweep"]
        )
        assert not check["passed"]
        assert "run the benchmark first" in check["detail"]

    def test_empty_results_dir_fails_main(self, tmp_path, capsys):
        (tmp_path / "results").mkdir()
        code = gate.main(["--results-dir", str(tmp_path / "results")])
        assert code == 1


class TestCommittedBaselines:
    """The repo's own results/ and baselines/ must stay in agreement."""

    def test_committed_payloads_pass_the_gate(self):
        checks = gate.run_gate()
        assert checks
        bad = [c for c in checks if not c["passed"]]
        assert not bad, bad

    def test_every_benchmark_has_full_and_quick_baselines(self):
        names = _gated_benchmarks()
        assert "batchsim" in names and "fleet" not in names
        for name in names:
            assert (gate.DEFAULT_BASELINE_DIR / f"BENCH_{name}.json").exists()
            assert (
                gate.DEFAULT_BASELINE_DIR / f"BENCH_{name}.quick.json"
            ).exists()
            assert (gate.DEFAULT_RESULTS_DIR / f"BENCH_{name}.json").exists()

    def test_every_committed_payload_belongs_to_a_gated_benchmark(self):
        # quick results are local runs (gitignored); everything else
        # under baselines/ and results/ is committed and gets gated
        payloads = list(gate.DEFAULT_BASELINE_DIR.glob("BENCH_*.json")) + [
            path
            for path in gate.DEFAULT_RESULTS_DIR.glob("BENCH_*.json")
            if not path.name.endswith(".quick.json")
        ]
        assert payloads
        names = _gated_benchmarks()
        stray = [
            path for path in payloads
            if path.name.removeprefix("BENCH_").split(".")[0] not in names
        ]
        assert not stray, stray


def _gated_benchmarks() -> set[str]:
    """The ``bench_<name>.py`` steps of CI's regression-gate job."""
    workflow = (
        GATE_PATH.parents[1] / ".github" / "workflows" / "ci.yml"
    ).read_text()
    job = re.search(
        r"^  regression-gate:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S
    )
    assert job, "ci.yml has no regression-gate job"
    names = set(re.findall(r"python bench_(\w+)\.py", job.group(1)))
    assert names
    return names
