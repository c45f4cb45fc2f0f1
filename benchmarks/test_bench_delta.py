"""Varying the duration constraint δ (Figures 13/14/16 claims).

TBC⁺ and TBC⁺⁺ across δ ∈ {10..160} days on two analogs, run by
``jobs/run_counting.py``: time should grow with δ (faster for TBC⁺),
per-type counts should rise monotonically.
Rows → ``results/delta_sweep.csv``.
"""
from __future__ import annotations

import pytest
import run_counting

from benchmarks._util import once, record


@pytest.mark.parametrize("delta_days", [10, 20, 40, 80, 160])
@pytest.mark.parametrize("algo", ["tbc+", "tbc++"])
@pytest.mark.parametrize("name", ["WN", "ER"])
def test_delta_sweep(benchmark, spark, name, algo, delta_days):
    out = once(
        benchmark, lambda: run_counting.run(spark, name, algo, delta_days=delta_days)
    )
    row = {
        "dataset": name, "algo": algo, "delta_days": delta_days,
        "total": int(out["cnt"].sum()),
        **{f"T{b}": int(c) for b, c in zip(out["btype"], out["cnt"])},
        "seconds": float(out["seconds"].iloc[0]),
    }
    benchmark.extra_info.update(row)
    record("delta_sweep", row)
