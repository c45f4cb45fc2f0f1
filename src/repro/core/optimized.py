"""TBC⁺ / TBC⁺⁺ — the §4 optimized counting framework on Spark.

Dataflow: Lemma-1-pruned wedge enumeration (Catalyst joins) → shuffle
by (start-vertex, end-vertex) → per-group combine kernel
(`repro.core.wedge_set`) inside `applyInPandas` → global per-type sum.

The (s, e) grouping is the distributed analog of the paper's
per-start-vertex loop over the hashmap ``H[w]``: each group holds
exactly the wedge sets one ``Combine()`` call consumes, so groups are
independent and Spark parallelizes what the paper executes serially.
Groups with fewer than two distinct middle vertices cannot form a
butterfly; a window over the same (s, e) hash partitioning drops them,
so one exchange serves both that filter and the kernel's grouping.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.core.schema import N_TYPES
from repro.core.wedge_set import count_group_plus, count_group_pp
from repro.core.wedges import wedges_pruned

_COUNT_COLS = [f"c{i}" for i in range(N_TYPES)]
_KERNEL_OUT_SCHEMA = ", ".join(f"{c} long" for c in _COUNT_COLS)


def grouped_wedges(edges: DataFrame, delta: int) -> DataFrame:
    """Pruned wedges restricted to (s, e) groups that can host butterflies."""
    group = Window.partitionBy("s", "e")
    return (
        wedges_pruned(edges, delta)
        .withColumn("viable", F.min("m").over(group) < F.max("m").over(group))
        .where("viable")
        .select("s", "e", "m", "layer", "lo", "hi", "fwd")
    )


def wedge_tuples(pdf: pd.DataFrame) -> list[tuple]:
    """One group's wedges as the kernels' ``(m, lo, hi, fwd)`` tuples."""
    return list(zip(*(pdf[c].tolist() for c in ("m", "lo", "hi", "fwd"))))


def _counts_dataflow(edges: DataFrame, delta: int, kernel: Callable) -> DataFrame:
    def run_group(key, pdf):
        counts = kernel(wedge_tuples(pdf), delta, int(key[0]) % 2)
        return pd.DataFrame([counts], columns=_COUNT_COLS)

    per_group = (
        grouped_wedges(edges, delta)
        .groupBy("s", "e")
        .applyInPandas(run_group, schema=_KERNEL_OUT_SCHEMA)
    )
    summed = per_group.agg(
        *[F.coalesce(F.sum(c), F.lit(0)).alias(c) for c in _COUNT_COLS]
    )
    stack = ", ".join(f"{i}L, {c}" for i, c in enumerate(_COUNT_COLS))
    return summed.selectExpr(f"stack({N_TYPES}, {stack}) as (btype, cnt)")


def tbc_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺ (Algorithms 2–4): HP-hashmap combine kernel → (btype, cnt)."""
    return _counts_dataflow(edges, delta, count_group_plus)


def tbc_pp(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺⁺ (§4.4): twin order-statistics-tree kernel → (btype, cnt)."""
    return _counts_dataflow(edges, delta, count_group_pp)


def count_local(edges_pdf: pd.DataFrame, delta: int) -> np.ndarray:
    """Single-process TBC⁺⁺ over a pandas edge frame (no Spark).

    It mirrors the Spark dataflow: priority-filtered pruned wedges,
    grouped by (s, e), combined with the tree kernel. The approximate
    counters run it on their samples, and the benchmarks and tests use it
    as the in-process reference.
    """
    from collections import defaultdict

    deg: dict[int, int] = defaultdict(int)
    adj: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for u, v, t in edges_pdf[["u", "v", "t"]].itertuples(index=False):
        gu, gv = 2 * int(u), 2 * int(v) + 1
        deg[gu] += 1
        deg[gv] += 1
        adj[gu].append((gv, int(t)))
        adj[gv].append((gu, int(t)))
    pr = lambda g: (deg[g], g)
    groups: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    for s in adj:
        ps = pr(s)
        for m, t1 in adj[s]:
            if ps <= pr(m):
                continue
            for e, t2 in adj[m]:
                if ps <= pr(e) or t1 == t2 or abs(t1 - t2) > delta:
                    continue
                groups[(s, e)].append(
                    (m, min(t1, t2), max(t1, t2), t1 < t2)
                )
    counts = np.zeros(N_TYPES, dtype=np.int64)
    for (s, e), ws in groups.items():
        counts += count_group_pp(ws, delta, s % 2)
    return counts
