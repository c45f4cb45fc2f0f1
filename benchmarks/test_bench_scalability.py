"""Scalability over graph size (Figure 15 claims).

TBC⁺⁺ on random edge subsets {20,40,60,80,100}% of two analogs, run by
``jobs/run_counting.py --edge-frac``: cost should grow roughly linearly
with the kept fraction. Rows → ``results/scalability.csv``.
"""
from __future__ import annotations

import pytest
import run_counting

from benchmarks._util import once, record


@pytest.mark.parametrize("frac", [0.2, 0.4, 0.6, 0.8, 1.0])
@pytest.mark.parametrize("name", ["WN", "ER"])
def test_scalability(benchmark, spark, name, frac):
    out = once(
        benchmark, lambda: run_counting.run(spark, name, "tbc++", edge_frac=frac, seed=7)
    )
    row = {
        "dataset": name, "frac": frac, "edges": int(out["edges"].iloc[0]),
        "total": int(out["cnt"].sum()),
        "seconds": float(out["seconds"].iloc[0]),
    }
    benchmark.extra_info.update(row)
    record("scalability", row)
