"""Benchmark harness configuration.

Each ``bench_*.py`` file regenerates one table/figure of the paper's
evaluation (or one ablation), times the regeneration with
pytest-benchmark, prints the series, and archives it under
``benchmarks/results/`` — EXPERIMENTS.md records the shapes against the
paper's.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import sys
from pathlib import Path

# bench_fastpath and bench_batchsim time the oracles kept in tests/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
