"""Table 4 — per-type distribution of temporal butterfly counts, δ=40d.

Runs ``jobs/table4_distribution.py`` (TBC⁺⁺, the paper's best counter)
on each dataset analog and records each type's share of the total
against the paper's Table-4 percentages → ``results/table4.csv``,
EXPERIMENTS.md § Table 4.
"""
from __future__ import annotations

import pytest
import table4_distribution

from benchmarks._util import once, record
from repro.datasets import DATASETS


@pytest.mark.parametrize("name", list(DATASETS))
def test_table4_row(benchmark, spark, name):
    out = once(benchmark, lambda: table4_distribution.run(spark, names=[name]))
    row = out.to_dict("records")[0]
    benchmark.extra_info.update(row)
    record("table4", row)
    assert row["total"] > 0, f"{name} analog produced no butterflies at delta=40d"
