"""Benchmark helpers: one-shot timing + result-row recording.

Every benchmark runs once (``pedantic(rounds=1)``) — the workloads are
seconds-scale Spark dataflows, and the paper's evaluation also reports
single-run wall-clock. Where a ``jobs/`` entry point covers the
experiment, the benchmark calls its ``run()`` and records the row it
returns, so its ``seconds`` is the job's own timer: the algorithm only,
with the input already generated and cached.

Rows go to ``results/<table>.csv``, from which EXPERIMENTS.md is
regenerated. The first row a process records for a table rewrites the
file (header included); later rows append.
"""
from __future__ import annotations

import csv
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"
_rewritten: set[str] = set()


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def record(table: str, row: dict) -> None:
    """Write one result row to results/<table>.csv (see module doc)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    first = table not in _rewritten
    _rewritten.add(table)
    with (RESULTS_DIR / f"{table}.csv").open("w" if first else "a", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(row))
        if first:
            w.writeheader()
        w.writerow(row)
