"""Sliding Window Model driver (§6 "Evaluation on Graph Streams").

Edges arrive chronologically; counts are maintained for the most recent
``window`` edges while sliding by ``stride`` edges per step — both sizes
in numbers of edges, as in the paper. The initial window is filled as
one insertion batch (with an empty prefix graph this equals a
from-scratch count: every butterfly is attributed to its latest edge).
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class _Driver:
    delta: int
    insert_batch: Callable
    delete_batch: Callable
    graph: StreamGraph = field(default_factory=StreamGraph)
    counts: np.ndarray = field(
        default_factory=lambda: np.zeros(N_TYPES, dtype=np.int64)
    )

    def run(self, edges: pd.DataFrame, window: int, stride: int) -> list[StepResult]:
        if window < 1 or stride < 1:
            raise ValueError(f"window and stride must be >= 1, got {window}, {stride}")
        rows = [tuple(map(int, r)) for r in edges[["u", "v", "t"]].itertuples(index=False)]
        if sorted(r[2] for r in rows) != [r[2] for r in rows]:
            raise ValueError("stream edges must arrive in chronological order")
        out: list[StepResult] = []
        first = rows[:window]
        self.counts = self.counts + self.insert_batch(self.graph, first)
        out.append(StepResult(self.counts.copy(), 0, min(window, len(rows))))
        pos = len(first)
        while pos < len(rows):
            incoming = rows[pos : pos + stride]
            outgoing = rows[pos - window : pos - window + len(incoming)]
            self.counts = self.counts - self.delete_batch(self.graph, outgoing)
            self.counts = self.counts + self.insert_batch(self.graph, incoming)
            pos += len(incoming)
            out.append(StepResult(self.counts.copy(), pos - window, pos))
        return out


def sliding_window_stbc(
    edges: pd.DataFrame, *, window: int, stride: int, delta: int
) -> list[StepResult]:
    """STBC over the sliding window: strictly sequential edge updates."""
    return _Driver(
        delta,
        insert_batch=lambda g, b: stbc_insert_batch(g, b, delta),
        delete_batch=lambda g, b: stbc_delete_batch(g, b, delta),
    ).run(edges, window, stride)


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

    return _Driver(delta, insert_batch=insert, delete_batch=delete).run(
        edges, window, stride
    )
