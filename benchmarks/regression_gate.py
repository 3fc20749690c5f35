"""Perf-regression gate: fresh ``BENCH_*.json`` runs vs committed baselines.

Every benchmark in this directory archives a machine-readable payload
under ``results/`` (``BENCH_<name>.json``, or ``BENCH_<name>.quick.json``
for a ``--quick`` run, so quick runs never overwrite the committed
full-size results)::

    {"benchmark": "lpsweep", "quick": false, "rows": [...],
     "acceptance": {..., "enforced": true}}

The gate pairs each fresh payload with the committed baseline of the
same name under ``baselines/`` — ``BENCH_<name>.json`` for full runs,
``BENCH_<name>.quick.json`` when the fresh payload carries
``"quick": true`` — and fails (exit 1) when:

- a **ratio metric regresses**: any ``speedup``-style field drops below
  ``baseline * (1 - tolerance)`` (default tolerance 0.25, i.e. a >25%
  slowdown).  Only dimensionless ratio fields are compared; raw
  ``*_s`` timings are machine-dependent and deliberately skipped, so
  the gate is stable across runner hardware;
- an **acceptance bar is missed**: the ``acceptance`` block of the
  baseline (and of the fresh payload) declares hard minima/maxima that
  are enforced against the fresh rows whenever ``enforced`` is true.
  Two forms are understood: legacy flat keys like
  ``"replay_speedup_min": 8.0`` (tokens select the row, the suffix
  names the metric) and the structured form::

      "minima": [{"metric": "speedup_cold",
                  "where": {"formulation": "lp-lf", "n": 60, "m": 25},
                  "min": 5.0}]

  (``"maxima"`` / ``"max"`` symmetrically for lower-is-better bars);
- a baseline row vanished from the fresh run, or the baseline file for
  a fresh payload is missing entirely.

Baselines are ordinary benchmark payloads: refresh one by re-running
the benchmark on a quiet machine and copying ``results/BENCH_<x>.json``
over ``baselines/BENCH_<x>.json`` (or the ``.quick.json`` twin from a
``--quick`` run).

Usage::

    python regression_gate.py                 # gate every fresh payload
    python regression_gate.py lpsweep         # gate one benchmark
    python regression_gate.py --quick         # only the --quick payloads
    python regression_gate.py --tolerance 0.5 # looser bar for noisy CI

Stdlib-only by design: the gate must run even where numpy/scipy are
broken, because that is exactly when you want it to scream.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_RESULTS_DIR = HERE / "results"
DEFAULT_BASELINE_DIR = HERE / "baselines"
DEFAULT_TOLERANCE = 0.25


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- row identity -------------------------------------------------------------
def row_key_fields(rows: list[dict]) -> list[str]:
    """The smallest leading field set that identifies every row.

    String-valued fields (``workload``, ``backend``, ``formulation``)
    are always part of the key; integer fields (``n``, ``m``) are
    appended, in declaration order, only until the keys are unique.
    """
    if not rows:
        return []
    fields = list(rows[0].keys())
    key_fields = [
        f for f in fields if all(isinstance(r.get(f), str) for r in rows)
    ]

    def unique(candidate: list[str]) -> bool:
        keys = [tuple(r.get(f) for f in candidate) for r in rows]
        return len(set(keys)) == len(keys)

    if not unique(key_fields):
        for f in fields:
            if f in key_fields:
                continue
            if all(
                isinstance(r.get(f), int) and not isinstance(r.get(f), bool)
                for r in rows
            ):
                key_fields.append(f)
                if unique(key_fields):
                    break
    return key_fields


def row_key(row: dict, key_fields: list[str]) -> tuple:
    return tuple((f, row.get(f)) for f in key_fields)


def _key_label(key: tuple) -> str:
    return ", ".join(f"{f}={v}" for f, v in key)


def _ratio_fields(rows: list[dict]) -> list[str]:
    """Dimensionless higher-is-better fields tracked for regressions."""
    if not rows:
        return []
    return [
        f
        for f in rows[0]
        if "speedup" in f and all(_is_number(r.get(f)) for r in rows)
    ]


# -- acceptance bars ----------------------------------------------------------
def _row_tokens(row: dict, key_fields: list[str]) -> set[str]:
    tokens: set[str] = set()
    for f in key_fields:
        value = row.get(f)
        if isinstance(value, str):
            tokens.update(
                t for t in re.split(r"[^0-9a-z]+", value.lower()) if t
            )
    return tokens


def _legacy_bars(
    acceptance: dict, rows: list[dict], key_fields: list[str]
) -> list[dict]:
    """Decode flat ``<selector>_<metric>_min`` / ``_max`` keys.

    The trailing ``_min``/``_max`` names the bound, the longest suffix
    naming a numeric row field is the metric, and the leading tokens
    select the row (tokens that occur in no row at all are treated as
    descriptive and ignored, e.g. the ``sweep`` in
    ``simplex_sweep_speedup_min``).
    """
    if not rows:
        return []
    numeric_fields = {f for f in rows[0] if _is_number(rows[0].get(f))}
    vocabulary: set[str] = set()
    for row in rows:
        vocabulary |= _row_tokens(row, key_fields)
    bars: list[dict] = []
    for key, value in acceptance.items():
        bound = (
            "min" if key.endswith("_min")
            else "max" if key.endswith("_max")
            else None
        )
        if bound is None or not _is_number(value):
            continue
        tokens = key[: -len("_min")].split("_")
        metric = None
        selectors: list[str] = []
        for i in range(len(tokens)):
            candidate = "_".join(tokens[i:])
            if candidate in numeric_fields:
                metric = candidate
                selectors = [t for t in tokens[:i] if t in vocabulary]
                break
        if metric is None:
            continue
        bars.append({"metric": metric, "tokens": selectors, bound: value})
    return bars


def _rows_matching(bar: dict, rows: list[dict], key_fields: list[str]):
    where = bar.get("where")
    if where is not None:
        return [
            r for r in rows if all(r.get(f) == v for f, v in where.items())
        ]
    tokens = set(bar.get("tokens") or ())
    return [r for r in rows if tokens <= _row_tokens(r, key_fields)]


def _acceptance_checks(
    acceptance: dict, rows: list[dict], key_fields: list[str]
) -> list[dict]:
    if not acceptance.get("enforced"):
        return []
    bars = _legacy_bars(acceptance, rows, key_fields)
    bars += list(acceptance.get("minima") or ())
    bars += list(acceptance.get("maxima") or ())
    checks = []
    for bar in bars:
        metric = bar["metric"]
        bound = "min" if "min" in bar else "max"
        limit = bar[bound]
        matched = _rows_matching(bar, rows, key_fields)
        if not matched:
            checks.append(
                {
                    "kind": "coverage",
                    "metric": metric,
                    "row": repr(bar.get("where") or bar.get("tokens")),
                    "value": None,
                    "limit": limit,
                    "passed": False,
                    "detail": "acceptance bar matched no fresh row",
                }
            )
            continue
        for row in matched:
            value = row.get(metric)
            passed = _is_number(value) and (
                value >= limit if bound == "min" else value <= limit
            )
            checks.append(
                {
                    "kind": "minimum" if bound == "min" else "maximum",
                    "metric": metric,
                    "row": _key_label(row_key(row, key_fields)),
                    "value": value,
                    "limit": limit,
                    "passed": passed,
                    "detail": f"acceptance {bound} {limit:g}",
                }
            )
    return checks


# -- payload comparison -------------------------------------------------------
def compare_payload(
    fresh: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[dict]:
    """All gate checks for one benchmark payload pair."""
    checks: list[dict] = []
    fresh_rows = list(fresh.get("rows") or ())
    base_rows = list(baseline.get("rows") or ())
    key_fields = row_key_fields(base_rows or fresh_rows)
    fresh_by_key = {row_key(r, key_fields): r for r in fresh_rows}

    for base_row in base_rows:
        key = row_key(base_row, key_fields)
        fresh_row = fresh_by_key.get(key)
        if fresh_row is None:
            checks.append(
                {
                    "kind": "regression",
                    "metric": "(row)",
                    "row": _key_label(key),
                    "value": None,
                    "limit": None,
                    "passed": False,
                    "detail": "baseline row missing from fresh run",
                }
            )
            continue
        for metric in _ratio_fields([base_row]):
            value = fresh_row.get(metric)
            floor = base_row[metric] * (1.0 - tolerance)
            checks.append(
                {
                    "kind": "regression",
                    "metric": metric,
                    "row": _key_label(key),
                    "value": value if _is_number(value) else None,
                    "limit": floor,
                    "passed": _is_number(value) and value >= floor,
                    "detail": (
                        f"baseline {base_row[metric]:.3f}"
                        f" - {tolerance:.0%} tolerance"
                    ),
                }
            )

    # acceptance bars travel in both payloads; the baseline copy is
    # authoritative (a benchmark edit cannot silently drop its own bar)
    seen: set[tuple] = set()
    for payload in (baseline, fresh):
        for check in _acceptance_checks(
            payload.get("acceptance") or {}, fresh_rows, key_fields
        ):
            identity = (check["kind"], check["metric"], check["row"],
                        check["limit"])
            if identity in seen:
                continue
            seen.add(identity)
            checks.append(check)
    return checks


def run_gate(
    results_dir: Path | str = DEFAULT_RESULTS_DIR,
    baseline_dir: Path | str = DEFAULT_BASELINE_DIR,
    tolerance: float = DEFAULT_TOLERANCE,
    names: list[str] | None = None,
    quick: bool = False,
) -> list[dict]:
    """Gate every fresh ``BENCH_*.json`` (or just ``names``).

    The default mode gates the full-size payloads only: the
    gitignored ``BENCH_*.quick.json`` files that local ``--quick`` runs
    leave beside them are skipped.  ``quick`` selects exactly those
    quick payloads instead, leaving the committed full-size results
    out.
    """
    results_dir = Path(results_dir)
    baseline_dir = Path(baseline_dir)
    suffix = ".quick.json" if quick else ".json"
    fresh_paths = sorted(
        path for path in results_dir.glob(f"BENCH_*{suffix}")
        if quick or not path.name.endswith(".quick.json")
    )
    if names:
        wanted = set(names)
        fresh_paths = [
            p for p in fresh_paths
            if p.stem.removeprefix("BENCH_").removesuffix(".quick") in wanted
        ]
        missing = wanted - {
            p.stem.removeprefix("BENCH_").removesuffix(".quick")
            for p in fresh_paths
        }
        for name in sorted(missing):
            fresh_paths.append(results_dir / f"BENCH_{name}{suffix}")

    checks: list[dict] = []
    for path in fresh_paths:
        name = path.stem.removeprefix("BENCH_").removesuffix(".quick")
        if not path.exists():
            checks.append(
                {
                    "benchmark": name, "kind": "coverage", "metric": "(file)",
                    "row": str(path), "value": None, "limit": None,
                    "passed": False,
                    "detail": "fresh result payload not found — run the"
                    " benchmark first",
                }
            )
            continue
        fresh = json.loads(path.read_text())
        name = fresh.get("benchmark", name)
        suffix = ".quick.json" if fresh.get("quick") else ".json"
        baseline_path = baseline_dir / f"BENCH_{name}{suffix}"
        if not baseline_path.exists():
            checks.append(
                {
                    "benchmark": name, "kind": "coverage", "metric": "(file)",
                    "row": str(baseline_path), "value": None, "limit": None,
                    "passed": False,
                    "detail": "no committed baseline for this payload",
                }
            )
            continue
        baseline = json.loads(baseline_path.read_text())
        if bool(baseline.get("quick")) != bool(fresh.get("quick")):
            checks.append(
                {
                    "benchmark": name, "kind": "coverage", "metric": "(mode)",
                    "row": str(baseline_path), "value": None, "limit": None,
                    "passed": False,
                    "detail": "baseline quick flag disagrees with fresh run",
                }
            )
            continue
        for check in compare_payload(fresh, baseline, tolerance):
            check["benchmark"] = name
            checks.append(check)
    return checks


def render_report(checks: list[dict]) -> str:
    lines = []
    for check in checks:
        status = "ok  " if check["passed"] else "FAIL"
        value = check.get("value")
        limit = check.get("limit")
        numbers = ""
        if value is not None and limit is not None:
            op = ">=" if check["kind"] != "maximum" else "<="
            numbers = f"  {value:.3f} {op} {limit:.3f}"
        lines.append(
            f"{status} {check.get('benchmark', '?'):12s}"
            f" {check['kind']:10s} {check['metric']}"
            f"[{check['row']}]{numbers}  ({check['detail']})"
        )
    failed = sum(1 for c in checks if not c["passed"])
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="regression_gate",
        description="fail on >tolerance benchmark regressions vs baselines",
    )
    parser.add_argument(
        "names", nargs="*",
        help="benchmark names to gate (default: every fresh BENCH_*.json)",
    )
    parser.add_argument(
        "--results-dir", default=str(DEFAULT_RESULTS_DIR),
        help="directory holding the fresh BENCH_*.json payloads",
    )
    parser.add_argument(
        "--baseline-dir", default=str(DEFAULT_BASELINE_DIR),
        help="directory holding the committed baseline payloads",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop in ratio metrics (default 0.25)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="gate only the BENCH_*.quick.json payloads of --quick runs",
    )
    args = parser.parse_args(argv)
    checks = run_gate(
        results_dir=args.results_dir,
        baseline_dir=args.baseline_dir,
        tolerance=args.tolerance,
        names=args.names or None,
        quick=args.quick,
    )
    if not checks:
        print("regression gate: nothing to check (no fresh payloads)")
        return 1
    print(render_report(checks))
    return 0 if all(c["passed"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
