"""Table 3 — dataset summary: paper statistics vs the scaled analogs.

    spark-submit jobs/table3_datasets.py [--scale 0.002]

Columns ``paper_*`` restate Table 3 of the paper; ``repro_*`` are the
measured statistics of the synthetic analogs actually used (computed
with Spark aggregations over the generated edge frames).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import make_session, print_table  # noqa: E402

from repro.core.schema import MS_PER_DAY  # noqa: E402
from repro.datasets import DATASETS  # noqa: E402


def run(spark: SparkSession, scale: float | None = None) -> pd.DataFrame:
    rows = []
    for name, cfg in DATASETS.items():
        s = scale if scale is not None else cfg.bench_scale
        sdf = cfg.generate(spark, s)
        agg = sdf.agg(
            F.count("*").alias("edges"),
            F.count_distinct("u").alias("upper"),
            F.count_distinct("v").alias("lower"),
            ((F.max("t") - F.min("t")) / MS_PER_DAY).alias("span_days"),
        ).collect()[0]
        rows.append(
            {
                "dataset": name,
                "entities": cfg.entities,
                "paper_E": cfg.paper_edges,
                "paper_U": cfg.paper_upper,
                "paper_L": cfg.paper_lower,
                "paper_span_days": cfg.span_days,
                "scale": s,
                "repro_E": int(agg["edges"]),
                "repro_U": int(agg["upper"]),
                "repro_L": int(agg["lower"]),
                "repro_span_days": round(float(agg["span_days"]), 2),
            }
        )
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=None,
                    help="override per-dataset bench scale")
    args = ap.parse_args()
    spark = make_session("table3")
    print_table(run(spark, args.scale), "Table 3: dataset summary (paper vs repro)")
    spark.stop()


if __name__ == "__main__":
    main()
