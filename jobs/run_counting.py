"""Figure 11/12 driver — one dataset, one algorithm, six per-type counts.

    spark-submit jobs/run_counting.py --dataset WN --algo tbc++
        [--delta-days 40] [--scale S] [--edge-frac 1.0]

``--algo`` names a counter (tbc, tbc-sql, tbc+, tbc++) or an enumerator
(tbe, tbe+). As in the paper's protocol, an enumerator's instances are
not written anywhere: they are counted per type inside the timed region,
so that every instance is produced. Every algorithm returns one row per
type, zero counts included. ``--edge-frac`` randomly keeps a fraction of
edges (the Figure-15 scalability protocol).
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
from _common import ALGO_CHOICES, make_session, print_table, resolve_count_algo  # noqa: E402

from repro.core.schema import days  # noqa: E402
from repro.datasets import DATASETS  # noqa: E402


def run(
    spark: SparkSession,
    dataset: str,
    algo: str,
    delta_days: float = 40.0,
    scale: float | None = None,
    edge_frac: float = 1.0,
    seed: int = 0,
) -> pd.DataFrame:
    cfg = DATASETS[dataset]
    sdf = cfg.generate(spark, scale if scale is not None else cfg.bench_scale)
    if edge_frac < 1.0:
        sdf = sdf.where(F.rand(seed) < edge_frac)
    sdf = sdf.cache()
    n_edges = sdf.count()  # materialize so load time is excluded, as in §6
    fn = resolve_count_algo(algo)
    t0 = time.perf_counter()
    counts = fn(spark, sdf, days(delta_days)).toPandas()
    elapsed = time.perf_counter() - t0
    counts["dataset"] = dataset
    counts["algo"] = algo
    counts["edges"] = n_edges
    counts["seconds"] = round(elapsed, 3)
    sdf.unpersist()
    return counts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", required=True, choices=list(DATASETS))
    ap.add_argument("--algo", required=True, choices=ALGO_CHOICES)
    ap.add_argument("--delta-days", type=float, default=40.0)
    ap.add_argument("--scale", type=float, default=None)
    ap.add_argument("--edge-frac", type=float, default=1.0)
    args = ap.parse_args()
    spark = make_session("counting")
    out = run(spark, args.dataset, args.algo, args.delta_days, args.scale,
              args.edge_frac)
    print_table(out, f"{args.algo} on {args.dataset}")
    spark.stop()


if __name__ == "__main__":
    main()
