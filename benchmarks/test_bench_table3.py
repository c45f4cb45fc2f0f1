"""Table 3 — dataset summary statistics of the 11 analogs.

Records the rows of ``jobs/table3_datasets.py`` (|E|, |U|, |L|, time
span from Spark aggregations, paper values alongside) in
``results/table3.csv``. See EXPERIMENTS.md § Table 3.
"""
from __future__ import annotations

import table3_datasets

from benchmarks._util import once, record
from repro.datasets import DATASETS

COLUMNS = [
    "dataset", "scale", "paper_E", "repro_E", "paper_U", "repro_U",
    "paper_L", "repro_L", "paper_span_days", "repro_span_days",
]


def test_table3(benchmark, spark):
    out = once(benchmark, lambda: table3_datasets.run(spark))
    for row in out[COLUMNS].to_dict("records"):
        record("table3", row)
    assert list(out["repro_E"]) == [c.sizes(c.bench_scale)[0] for c in DATASETS.values()]
