"""Streaming driver — sliding-window STBC / STBC⁺ (Figures 18–20 data).

    spark-submit jobs/run_streaming.py --dataset LF --algo stbc+
        [--window 2000] [--stride-pct 5] [--parallelism 4]
        [--delta-days 40] [--scale S]

``--parallelism`` > 1 runs STBC⁺ with Spark-task batch parallelism (the
paper's thread count); STBC is inherently sequential.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import make_session, print_table  # noqa: E402

from repro.core.schema import days  # noqa: E402
from repro.datasets import DATASETS  # noqa: E402
from repro.streaming.window import sliding_window_stbc, sliding_window_stbc_plus  # noqa: E402


def run(
    spark: SparkSession | None,
    dataset: str,
    algo: str,
    window: int = 2000,
    stride_pct: float = 5.0,
    parallelism: int = 1,
    delta_days: float = 40.0,
    scale: float | None = None,
) -> pd.DataFrame:
    cfg = DATASETS[dataset]
    pdf = cfg.generate_pdf(scale if scale is not None else cfg.bench_scale)
    stride = max(1, int(window * stride_pct / 100.0))
    delta = days(delta_days)
    t0 = time.perf_counter()
    if algo == "stbc":
        steps = sliding_window_stbc(pdf, window=window, stride=stride, delta=delta)
    elif algo == "stbc+":
        steps = sliding_window_stbc_plus(
            pdf, window=window, stride=stride, delta=delta,
            spark=spark, parallelism=parallelism,
        )
    else:
        raise ValueError(f"unknown streaming algo {algo!r}")
    elapsed = time.perf_counter() - t0
    final = steps[-1].counts
    return pd.DataFrame(
        [
            {
                "dataset": dataset,
                # STBC is sequential; STBC⁺ is labelled with its task count
                "algo": algo if algo == "stbc" else f"stbc+{parallelism}",
                "window": window,
                "stride": stride,
                "steps": len(steps),
                "final_total": int(final.sum()),
                "seconds": round(elapsed, 3),
            }
        ]
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", required=True, choices=list(DATASETS))
    ap.add_argument("--algo", required=True, choices=("stbc", "stbc+"))
    ap.add_argument("--window", type=int, default=2000)
    ap.add_argument("--stride-pct", type=float, default=5.0)
    ap.add_argument("--parallelism", type=int, default=1)
    ap.add_argument("--delta-days", type=float, default=40.0)
    ap.add_argument("--scale", type=float, default=None)
    args = ap.parse_args()
    spark = make_session("streaming") if args.parallelism > 1 else None
    out = run(spark, args.dataset, args.algo, args.window, args.stride_pct,
              args.parallelism, args.delta_days, args.scale)
    print_table(out, f"streaming {args.algo} on {args.dataset}")
    if spark:
        spark.stop()


if __name__ == "__main__":
    main()
