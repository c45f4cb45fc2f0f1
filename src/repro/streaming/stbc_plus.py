"""STBC⁺ (Algorithm 8): conflict-free batch deltas, Spark-parallel.

Lemma 8: restricting each edge's traversal to ``(t, t+δ]`` (deletion)
or ``[t-δ, t)`` (insertion) attributes every affected butterfly to its
minimum- (resp. maximum-) timestamp edge, so batch members can be
counted independently — no read-write conflicts, no double counting.
The paper parallelizes with OpenMP threads; we parallelize with Spark
tasks over the batch (one ``mapPartitions`` stage on a broadcast graph
snapshot, summed on the driver), which is the same work decomposition.

Prerequisites mirror the paper: for deletion the batch must be the
window's chronological prefix (all edges still present while counting);
for insertion the batch must be the chronological suffix and be fully
inserted before counting.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
from pyspark.sql import SparkSession

from repro.core.schema import N_TYPES
from repro.streaming.graph import StreamGraph, sum_on_tasks
from repro.streaming.stbc import edge_delta


def _batch_delta_local(
    g: StreamGraph, batch: Iterable[tuple], delta: int, mode: str
) -> np.ndarray:
    out = np.zeros(N_TYPES, dtype=np.int64)
    for u, v, t in batch:
        u, v, t = int(u), int(v), int(t)
        if mode == "delete":
            out += edge_delta(g, u, v, t, delta, lo=t + 1, hi=t + delta)
        else:
            out += edge_delta(g, u, v, t, delta, lo=t - delta, hi=t - 1)
    return out


def stbc_plus_batch(
    g: StreamGraph,
    batch: list[tuple],
    delta: int,
    mode: str,
    spark: SparkSession | None = None,
    parallelism: int = 1,
) -> np.ndarray:
    """Per-type delta of a whole batch (graph snapshot is not mutated).

    ``mode`` is ``"delete"`` or ``"insert"``. With ``spark`` given, the
    batch is spread over ``parallelism`` tasks (the paper's thread
    count); otherwise it runs in-process (STBC⁺-1).
    """
    if mode not in ("delete", "insert"):
        raise ValueError(f"mode must be delete/insert, got {mode!r}")
    if not batch:
        return np.zeros(N_TYPES, dtype=np.int64)
    if spark is None or parallelism <= 1:
        return _batch_delta_local(g, batch, delta, mode)
    return sum_on_tasks(
        spark, g, batch, parallelism,
        lambda snap, rows: _batch_delta_local(snap, rows, delta, mode),
    )
