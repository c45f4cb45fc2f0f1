"""Table 4 — distribution of temporal butterfly counts per type.

    spark-submit jobs/table4_distribution.py [--delta-days 40]
        [--scale S] [--datasets WQ,WN,...] [--algo tbc++]

For each dataset analog, counts all six types with ``run_counting`` and
the chosen algorithm (any of its six; all give the same counts) at δ
(default 40 days, the paper's setting) and reports each type's
percentage of the total next to the paper's Table-4 percentages.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run_counting  # noqa: E402
from _common import ALGO_CHOICES, make_session, print_table  # noqa: E402

from repro.datasets import DATASETS, PAPER_TABLE4  # noqa: E402


def run(
    spark: SparkSession,
    delta_days: float = 40.0,
    scale: float | None = None,
    names: list[str] | None = None,
    algo: str = "tbc++",
) -> pd.DataFrame:
    rows = []
    for name in names or list(DATASETS):
        out = run_counting.run(spark, name, algo, delta_days, scale)
        counts = dict(zip(out["btype"].tolist(), out["cnt"].tolist()))
        total = sum(counts.values())
        row: dict = {"dataset": name, "total": total}
        for i in range(6):
            row[f"T{i}_paper_pct"] = PAPER_TABLE4[name][i]
            row[f"T{i}_repro_pct"] = (
                round(100.0 * counts[i] / total, 1) if total else 0.0
            )
        rows.append(row)
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta-days", type=float, default=40.0)
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--datasets", type=str, default=None)
    ap.add_argument("--algo", choices=ALGO_CHOICES, default="tbc++")
    args = ap.parse_args()
    names = args.datasets.split(",") if args.datasets else None
    spark = make_session("table4")
    out = run(spark, args.delta_days, args.scale, names, args.algo)
    print_table(out, f"Table 4: type distribution at delta={args.delta_days}d")
    spark.stop()


if __name__ == "__main__":
    main()
