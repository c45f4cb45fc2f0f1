"""TBC⁺ / TBC⁺⁺ — the §4 optimized counters — and the wedge walk that
TBE⁺ shares.

Counting is the paper's Alg. 2, a loop over start vertices that reads
each start's 2-hop wedges from an in-memory graph (``walk``) and combines
each (s, e) group with a `repro.core.wedge_set` kernel. ``count_local``
walks every start in one process; ``tbc_plus``, ``tbc_pp`` and TBE⁺
collect the edges into one ``StreamGraph`` and walk the starts on one
task per core (ParButterfly's per-vertex parallelism, Shi & Shun, APOCS
2020), a hot start's (s, e) groups split over several tasks.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.schema import N_TYPES, counts_frame
from repro.core.wedge_set import count_group_plus, count_group_pp
from repro.core.wedges import wedges_pruned
from repro.streaming.graph import StreamGraph, sum_on_tasks


def grouped_wedges(edges: DataFrame, delta: int) -> DataFrame:
    """Pruned wedges of the (s, e) groups with two distinct middles, the
    only ones that can host butterflies: the benchmark's reference, pure
    Catalyst and independent of ``walk``."""
    se = Window.partitionBy("s", "e")
    return (
        wedges_pruned(edges, delta)
        .withColumn("viable", F.min("m").over(se) < F.max("m").over(se))
        .where("viable")
        .select("s", "e", "m", "layer", "lo", "hi", "fwd")
    )


def walk(
    g: StreamGraph, units: Iterable[tuple[int, int, int]], delta: int
) -> Iterator[tuple[int, int, list[tuple]]]:
    """``(s, e, wedges)`` per (s, e) group of each unit ``(s, j, k)``'s
    start ``s``, the wedges as the kernels' ``(m, lo, hi, fwd)`` tuples.

    A wedge ``(s, m, t1), (m, e, t2)`` is kept when ``s`` out-ranks both
    ``m`` and ``e`` in Definition 4's ``(degree, gid)`` order and
    ``t1 ≠ t2``. Lemma 1 bounds ``t2`` to ``[t1 − δ, t1 + δ]``, a binary
    search of ``m``'s time-sorted edges.

    A unit with ``k > 1`` yields only part ``j`` of a ``k``-way deal of
    the groups by wedge count (``_pack``, ties by ``e``). The deal depends
    on the graph alone, so the ``k`` parts cover the groups once.
    """
    pr = lambda x: (len(g.adj[x]), x)
    for s, j, k in units:
        ps = pr(s)
        groups: dict[int, list[tuple]] = defaultdict(list)
        for t1, m in g.adj[s]:
            if ps <= pr(m):
                continue
            for t2, e in g.neighbors_in(m, t1 - delta, t1 + delta):
                if ps <= pr(e) or t1 == t2:
                    continue
                groups[e].append((m, min(t1, t2), max(t1, t2), t1 < t2))
        part = groups.items()
        if k > 1:
            part = _pack(sorted(part), lambda it: len(it[1]), k)[j]
        for e, ws in part:
            yield s, e, ws


def _count(
    g: StreamGraph, units: Iterable[tuple], delta: int, kernel: Callable
) -> np.ndarray:
    counts = np.zeros(N_TYPES, dtype=np.int64)
    for s, _e, ws in walk(g, units, delta):
        counts += kernel(ws, delta, s % 2)
    return counts


def start_bins(g: StreamGraph, n: int) -> list[list[tuple[int, int, int]]]:
    """``walk``'s units in ``n`` bins (``_pack``). A start's work ``c`` is
    estimated as Σ deg(m) over the middles its walk expands, those it
    out-ranks; a start with none walks no wedge and is left out. A start
    is ``k = min(n, ⌈c·n / total⌉)`` units ``(s, j, k)`` of cost ``c / k``,
    so only one above a fair bin's cost is split (each part walks it)."""
    pr = lambda x: (len(g.adj[x]), x)
    cost = {
        s: sum(len(g.adj[m]) for _t, m in lst if pr(m) < pr(s))
        for s, lst in g.adj.items()
    }
    total = sum(cost.values())
    units = []
    for s, c in cost.items():
        k = min(n, -(-c * n // total)) if c else 0
        units += [(s, j, k) for j in range(k)]
    return _pack(units, lambda u: cost[u[0]] / u[2], n)


def _pack(items: Iterable, cost: Callable, n: int) -> list[list]:
    """``items`` in ``n`` bins, greedily longest first onto the least
    loaded bin; equal costs keep their order."""
    bins: list[list] = [[] for _ in range(n)]
    loads = [0] * n
    for x in sorted(items, key=cost, reverse=True):
        i = loads.index(min(loads))
        bins[i].append(x)
        loads[i] += cost(x)
    return bins


def graph_and_bins(spark: SparkSession, edges: DataFrame) -> tuple[StreamGraph, list]:
    """The edges collected into a ``StreamGraph``; its ``walk`` units in
    one bin per core."""
    g = StreamGraph.from_pdf(edges.select("u", "v", "t").toPandas())
    return g, start_bins(g, spark.sparkContext.defaultParallelism)


def _count_on_tasks(
    spark: SparkSession, edges: DataFrame, delta: int, kernel: Callable
) -> DataFrame:
    """One task per start bin over the broadcast graph; the summed counts
    come back as a JVM-side frame."""
    g, bins = graph_and_bins(spark, edges)
    counts = sum_on_tasks(
        spark, g, bins, len(bins),
        lambda snap, part: _count(snap, chain.from_iterable(part), delta, kernel),
    )
    return counts_frame(spark, counts)


def tbc_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺ (Algorithms 2–4): HP-hashmap combine kernel → (btype, cnt)."""
    return _count_on_tasks(spark, edges, delta, count_group_plus)


def tbc_pp(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺⁺ (§4.4): twin order-statistics-tree kernel → (btype, cnt)."""
    return _count_on_tasks(spark, edges, delta, count_group_pp)


def count_local(edges_pdf: pd.DataFrame, delta: int) -> np.ndarray:
    """Single-process TBC⁺⁺ over a pandas edge frame (no Spark): the walk
    over every start, each group combined with the tree kernel. The
    approximate counters run it on their samples, and the benchmarks and
    tests use it as the in-process reference."""
    g = StreamGraph.from_pdf(edges_pdf)
    return _count(g, ((s, 0, 1) for s in g.adj), delta, count_group_pp)
