"""Shared helpers for the benchmark harness."""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.reporting import ascii_chart, format_table

RESULTS_DIR = Path(__file__).parent / "results"


def _stem(name: str, quick: bool) -> str:
    """Results file stem: quick runs get a ``.quick`` suffix so they
    never overwrite the committed full-size results."""
    return f"{name}.quick" if quick else name


def record(
    name: str, rows, columns=None, title: str = "", quick: bool = False
) -> None:
    """Print an experiment's series and archive it to results/.

    When the rows carry numeric ``energy_mj``/``accuracy`` columns, an
    ASCII accuracy-vs-energy chart is archived alongside the table.
    A ``quick`` run archives to ``<name>.quick.txt`` (and
    ``<name>.quick.chart.txt``) instead of ``<name>.txt``.
    """
    text = format_table(rows, columns=columns, title=title or name)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = _stem(name, quick)
    (RESULTS_DIR / f"{stem}.txt").write_text(text + "\n")

    plottable = [
        r
        for r in rows
        if isinstance(r.get("energy_mj"), (int, float))
        and isinstance(r.get("accuracy"), (int, float))
    ]
    if len(plottable) >= 4:
        series = "algorithm" if "algorithm" in plottable[0] else None
        chart = ascii_chart(
            plottable, x="energy_mj", y="accuracy", series=series,
            title=(title or name) + " — accuracy vs energy",
        )
        (RESULTS_DIR / f"{stem}.chart.txt").write_text(chart + "\n")


def write_payload(payload: dict) -> None:
    """Archive a benchmark's machine-readable payload for the gate.

    Writes ``results/BENCH_<benchmark>.json``, or
    ``BENCH_<benchmark>.quick.json`` when ``payload["quick"]`` is true.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = _stem(payload["benchmark"], bool(payload.get("quick")))
    (RESULTS_DIR / f"BENCH_{stem}.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
