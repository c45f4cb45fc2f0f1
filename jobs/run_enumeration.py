"""Enumeration driver — TBE / TBE⁺ (Figure 11's enumeration bars).

    spark-submit jobs/run_enumeration.py --dataset WN --algo tbe+
        [--delta-days 40] [--scale S]

As in the paper's protocol, instances are enumerated but not written
anywhere; we count them per type to force full materialization. Like
``run_counting``, the job returns one row per type, zero counts included.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import ENUM_CHOICES, make_session, print_table, resolve_enum_algo  # noqa: E402

from repro.core.schema import N_TYPES, days, type_counts  # noqa: E402
from repro.datasets import DATASETS  # noqa: E402


def run(
    spark: SparkSession,
    dataset: str,
    algo: str,
    delta_days: float = 40.0,
    scale: float | None = None,
) -> pd.DataFrame:
    cfg = DATASETS[dataset]
    sdf = cfg.generate(spark, scale if scale is not None else cfg.bench_scale).cache()
    n_edges = sdf.count()
    fn = resolve_enum_algo(algo)
    t0 = time.perf_counter()
    inst = fn(spark, sdf, days(delta_days))
    per_type = (
        type_counts(inst, [F.count_if(F.col("btype") == i) for i in range(N_TYPES)])
        .withColumnRenamed("cnt", "instances")
        .toPandas()
    )
    elapsed = time.perf_counter() - t0
    per_type["dataset"] = dataset
    per_type["algo"] = algo
    per_type["edges"] = n_edges
    per_type["seconds"] = round(elapsed, 3)
    sdf.unpersist()
    return per_type


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", required=True, choices=list(DATASETS))
    ap.add_argument("--algo", required=True, choices=ENUM_CHOICES)
    ap.add_argument("--delta-days", type=float, default=40.0)
    ap.add_argument("--scale", type=float, default=None)
    args = ap.parse_args()
    spark = make_session("enumeration")
    out = run(spark, args.dataset, args.algo, args.delta_days, args.scale)
    print_table(out, f"{args.algo} on {args.dataset}")
    spark.stop()


if __name__ == "__main__":
    main()
