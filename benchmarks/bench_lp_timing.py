"""LP solve-time benchmark (§5 "Other Results").

The paper's CPLEX runs took seconds to ~minutes in the worst cases;
this records, per formulation and problem size on the HiGHS backend,
the compiled form's size, one cold fast-path compile, one
``solve_form`` of it, and the parametric budget-sweep columns (one
compile + ``solve_batch`` over an 8-budget ladder vs per-budget cold
compile+solve).
"""

from _helpers import record

from repro.experiments import lp_timing

COLUMNS = [
    "formulation", "n", "m", "variables", "constraints",
    "fastbuild_s", "solve_s", "sweep_s", "sweep_speedup",
]


def _check(rows):
    # the proof formulation is the largest, as the paper notes
    by_formulation = {}
    for row in rows:
        by_formulation.setdefault(row["formulation"], []).append(row)
    largest_proof = max(r["variables"] for r in by_formulation["prospector-proof"])
    largest_lf = max(r["variables"] for r in by_formulation["lp-lf"])
    assert largest_proof > largest_lf
    assert all(r["solve_s"] < 60 for r in rows)
    # compile sharing alone must not make sweeps slower than cold loops
    assert all(r["sweep_speedup"] > 0.8 for r in rows)


def test_lp_timing(benchmark):
    rows = benchmark.pedantic(lp_timing.run, rounds=1, iterations=1)
    record("lp_timing", rows, columns=COLUMNS, title="LP build+solve times")
    _check(rows)


if __name__ == "__main__":
    result_rows = lp_timing.run()
    record("lp_timing", result_rows, columns=COLUMNS,
           title="LP build+solve times")
    _check(result_rows)
