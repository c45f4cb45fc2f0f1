"""Sliding Window Model driver (§6 "Evaluation on Graph Streams").

Edges arrive chronologically; counts are maintained for the most recent
``window`` edges while sliding by ``stride`` edges per step — both sizes
in numbers of edges, as in the paper. The initial window is filled as
one insertion batch (with an empty prefix graph this equals a
from-scratch count: every butterfly is attributed to its latest edge).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.schema import N_TYPES
from repro.streaming.graph import StreamGraph
from repro.streaming.stbc import stbc_delete_batch, stbc_insert_batch
from repro.streaming.stbc_plus import stbc_plus_batch


@dataclass
class StepResult:
    """Counts after one slide, plus the window's edge interval."""

    counts: np.ndarray
    start: int  # index of the first window edge in the stream
    end: int  # one past the last window edge


def _slide(
    edges: pd.DataFrame, window: int, stride: int, insert: Callable, delete: Callable
) -> list[StepResult]:
    """Counts after each slide; ``insert(graph, batch)`` and
    ``delete(graph, batch)`` apply a batch of edge rows to the window's
    graph and return the count change it causes."""
    if window < 1 or stride < 1:
        raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
    rows = [tuple(map(int, r)) for r in edges[["u", "v", "t"]].itertuples(index=False)]
    if sorted(r[2] for r in rows) != [r[2] for r in rows]:
        raise ValueError("stream edges must arrive in chronological order")
    graph = StreamGraph()
    first = rows[:window]
    counts = np.zeros(N_TYPES, dtype=np.int64) + insert(graph, first)
    out = [StepResult(counts, 0, len(first))]
    pos = len(first)
    while pos < len(rows):
        incoming = rows[pos : pos + stride]
        outgoing = rows[pos - window : pos - window + len(incoming)]
        counts = counts - delete(graph, outgoing)
        counts = counts + insert(graph, incoming)
        pos += len(incoming)
        out.append(StepResult(counts, pos - window, pos))
    return out


def sliding_window_stbc(
    edges: pd.DataFrame, *, window: int, stride: int, delta: int
) -> list[StepResult]:
    """STBC over the sliding window: strictly sequential edge updates."""
    return _slide(
        edges,
        window,
        stride,
        insert=lambda g, b: stbc_insert_batch(g, b, delta),
        delete=lambda g, b: stbc_delete_batch(g, b, delta),
    )


def sliding_window_stbc_plus(
    edges: pd.DataFrame,
    *,
    window: int,
    stride: int,
    delta: int,
    spark: SparkSession | None = None,
    parallelism: int = 1,
) -> list[StepResult]:
    """STBC⁺ over the sliding window: batch counting per slide.

    Deletions are counted before any removal (batch = window prefix,
    Lemma-8 min-edge attribution); insertions are applied to the graph
    first, then counted (max-edge attribution) — the paper's
    "all edges should be inserted into the graph beforehand".
    """

    def insert(g: StreamGraph, batch):
        for u, v, t in batch:
            g.insert(u, v, t)
        return stbc_plus_batch(g, batch, delta, "insert", spark, parallelism)

    def delete(g: StreamGraph, batch):
        dec = stbc_plus_batch(g, batch, delta, "delete", spark, parallelism)
        for u, v, t in batch:
            g.delete(u, v, t)
        return dec

    return _slide(edges, window, stride, insert, delete)
