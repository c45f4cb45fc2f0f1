"""Chronological adjacency snapshot for the streaming algorithms.

Each vertex (gid space) keeps its incident temporal edges as a list of
``(t, neighbor_gid)`` sorted by timestamp — the paper's "store E(u) in a
queue and process it in chronological order", which makes every
``[lo, hi]`` time-range neighbourhood query a pair of binary searches.
"""
from __future__ import annotations

import os
import sys
import zipimport
from bisect import bisect_left, bisect_right, insort
from typing import Callable, Iterable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


class StreamGraph:
    """Mutable temporal bipartite graph keyed by gids."""

    def __init__(self) -> None:
        self.adj: dict[int, list[tuple[int, int]]] = {}

    @classmethod
    def from_pdf(cls, edges: pd.DataFrame) -> "StreamGraph":
        g = cls()
        edges = edges.sort_values("t", kind="stable")  # so every insert appends
        for u, v, t in edges[["u", "v", "t"]].itertuples(index=False):
            g.insert(int(u), int(v), int(t))
        return g

    def insert(self, u: int, v: int, t: int) -> None:
        """Add edge (u ∈ U, v ∈ L, t). ``insort`` keeps lists sorted even
        for out-of-order insertion; chronological streams append in O(1)."""
        gu, gv = 2 * u, 2 * v + 1
        insort(self.adj.setdefault(gu, []), (t, gv))
        insort(self.adj.setdefault(gv, []), (t, gu))

    def delete(self, u: int, v: int, t: int) -> None:
        """Remove edge (u, v, t); a vertex whose last edge leaves drops
        out of ``adj``. ``KeyError`` (and no change) if it is absent."""
        gu, gv = 2 * u, 2 * v + 1
        for a, b in ((gu, gv), (gv, gu)):
            lst = self.adj.get(a, [])
            i = bisect_left(lst, (t, b))
            if i >= len(lst) or lst[i] != (t, b):
                raise KeyError(f"edge ({u}, {v}, {t}) not present")
            lst.pop(i)
            if not lst:
                del self.adj[a]

    def neighbors_in(self, gid: int, lo: int, hi: int) -> list[tuple[int, int]]:
        """Incident (t, nbr) with lo <= t <= hi, by binary search."""
        lst = self.adj.get(gid)
        if not lst:
            return []
        i = bisect_left(lst, (lo, -1))
        j = bisect_right(lst, (hi, 1 << 62))
        return lst[i:j]


def keep_zip_listings() -> None:
    """Make ``zipimporter.invalidate_caches`` re-read an archive's
    directory only when the archive's ``(st_mtime_ns, st_size)`` changed
    since this importer last read it, or cannot be read.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task, and under Python 3.11 each zipimporter over ``pyspark.zip`` and
    py4j then re-reads its whole archive: ~0.1 s per task. Called from a
    task, this makes a reused worker pay that once. Idempotent; Python
    3.12 re-reads lazily (gh-103200), so there it changes nothing.
    """
    cls = zipimport.zipimporter
    if sys.version_info >= (3, 12) or cls.invalidate_caches.__module__ == __name__:
        return
    reread = cls.invalidate_caches

    def invalidate_caches(self) -> None:
        try:
            st = os.stat(self.archive)
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            stamp = None
        if stamp is None or stamp != getattr(self, "_listing_stamp", None):
            reread(self)
            self._listing_stamp = stamp

    cls.invalidate_caches = invalidate_caches


def sum_on_tasks(
    spark: SparkSession, g: StreamGraph, items: list, slices: int, fn: Callable
) -> np.ndarray:
    """``fn(g, part)`` on each of ``slices`` tasks over a broadcast ``g``,
    summed: ``part`` iterates that task's share of ``items``, and ``fn``
    returns per-type counts. The broadcast is destroyed before returning."""
    sc = spark.sparkContext
    bc = sc.broadcast(g)

    def run(part: Iterable):
        keep_zip_listings()
        yield fn(bc.value, part)

    try:
        parts = sc.parallelize(items, slices).mapPartitions(run).collect()
    finally:
        bc.destroy()  # also unlinks the pickled copy in sc._temp_dir
    return np.sum(parts, axis=0)
