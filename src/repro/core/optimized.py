"""TBC⁺ / TBC⁺⁺ — the §4 optimized counting framework on Spark.

Dataflow: Lemma-1-pruned wedge enumeration (Catalyst joins) → one hash
exchange on (start-vertex, end-vertex), sorted by (s, e) within each
partition → one Python group walker per partition (``mapInPandas``)
that runs the combine kernel (`repro.core.wedge_set`) on each (s, e)
group → global per-type sum.

The (s, e) grouping is the distributed analog of the paper's
per-start-vertex loop over the hashmap ``H[w]``: each group holds
exactly the wedge sets one ``Combine()`` call consumes, so groups are
independent and Spark parallelizes what the paper executes serially.
The walker (``viable_groups``) reads each partition's rows as one stream
of Python tuples, finds the groups with ``itertools.groupby`` on (s, e),
whichever Arrow batches a group spans, and skips groups with fewer than
two distinct middle vertices, which cannot form a butterfly. Spark thus
calls Python once per partition, and only the kernel runs once per
group (the sort-based batching of ParButterfly, Shi & Shun, APOCS 2020).
"""
from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import StructType

from repro.core.schema import N_TYPES, type_counts
from repro.core.wedge_set import count_group_plus, count_group_pp
from repro.core.wedges import wedges_pruned
from repro.streaming.graph import StreamGraph

_COUNT_COLS = [f"c{i}" for i in range(N_TYPES)]
_KERNEL_OUT_SCHEMA = ", ".join(f"{c} long" for c in _COUNT_COLS)
_GROUPED_COLS = ["s", "e", "m", "layer", "lo", "hi", "fwd"]
_GROUPED_SCHEMA = "s long, e long, m long, layer long, lo long, hi long, fwd boolean"


def viable_groups(batches: Iterator[pd.DataFrame]) -> Iterator[tuple[int, int, list[tuple]]]:
    """``(s, e, wedges)`` per viable group of one partition, the wedges
    as the kernels' ``(m, lo, hi, fwd)`` tuples of Python scalars.

    The batches arrive sorted by (s, e), so each group is one run of the
    partition's row stream, however many batches it spans. A group is
    viable when it holds at least two distinct middles.
    """
    # each row as ((s, e), (m, lo, hi, fwd)), batch after batch
    rows = chain.from_iterable(
        zip(zip(pdf["s"].tolist(), pdf["e"].tolist()),
            zip(*(pdf[c].tolist() for c in ("m", "lo", "hi", "fwd"))))
        for pdf in batches
    )
    for (s, e), run in groupby(rows, key=itemgetter(0)):
        ws = [w for _key, w in run]
        if min(w[0] for w in ws) < max(w[0] for w in ws):
            yield s, e, ws


def walk_groups(
    edges: DataFrame, delta: int, walker: Callable, schema: StructType | str
) -> DataFrame:
    """Pruned wedges, one (s, e) exchange, sorted within partitions, and
    ``walker`` over each partition's iterator of Arrow batches."""
    return (
        wedges_pruned(edges, delta)
        .repartition("s", "e")
        .sortWithinPartitions("s", "e")
        .mapInPandas(walker, schema)
    )


def grouped_wedges(edges: DataFrame, delta: int) -> DataFrame:
    """Pruned wedges restricted to (s, e) groups that can host butterflies."""

    def viable_rows(batches):
        rows = [
            (s, e, m, s % 2, lo, hi, fwd)
            for s, e, ws in viable_groups(batches)
            for m, lo, hi, fwd in ws
        ]
        if rows:
            yield pd.DataFrame(rows, columns=_GROUPED_COLS)

    return walk_groups(edges, delta, viable_rows, _GROUPED_SCHEMA)


def _counts_dataflow(edges: DataFrame, delta: int, kernel: Callable) -> DataFrame:
    def count(batches):
        counts = np.zeros(N_TYPES, dtype=np.int64)
        for s, _e, ws in viable_groups(batches):
            counts += kernel(ws, delta, s % 2)
        yield pd.DataFrame([counts], columns=_COUNT_COLS)

    per_partition = walk_groups(edges, delta, count, _KERNEL_OUT_SCHEMA)
    return type_counts(
        per_partition, [F.coalesce(F.sum(c), F.lit(0)) for c in _COUNT_COLS]
    )


def tbc_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺ (Algorithms 2–4): HP-hashmap combine kernel → (btype, cnt)."""
    return _counts_dataflow(edges, delta, count_group_plus)


def tbc_pp(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBC⁺⁺ (§4.4): twin order-statistics-tree kernel → (btype, cnt)."""
    return _counts_dataflow(edges, delta, count_group_pp)


def count_local(edges_pdf: pd.DataFrame, delta: int) -> np.ndarray:
    """Single-process TBC⁺⁺ over a pandas edge frame (no Spark).

    It mirrors the Spark dataflow: priority-filtered pruned wedges,
    grouped by (s, e), combined with the tree kernel. The edges sit in a
    ``StreamGraph``, whose time-sorted lists make Lemma 1's δ bound on
    the second wedge edge a binary search. The approximate
    counters run it on their samples, and the benchmarks and tests use it
    as the in-process reference.
    """
    from collections import defaultdict

    g = StreamGraph.from_pdf(edges_pdf.sort_values("t", kind="stable"))
    pr = lambda x: (len(g.adj[x]), x)
    groups: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    for s, lst in g.adj.items():
        ps = pr(s)
        for t1, m in lst:
            if ps <= pr(m):
                continue
            # Lemma 1: only edges of m within δ of t1 close a wedge
            for t2, e in g.neighbors_in(m, t1 - delta, t1 + delta):
                if ps <= pr(e) or t1 == t2:
                    continue
                groups[(s, e)].append(
                    (m, min(t1, t2), max(t1, t2), t1 < t2)
                )
    counts = np.zeros(N_TYPES, dtype=np.int64)
    for (s, e), ws in groups.items():
        counts += count_group_pp(ws, delta, s % 2)
    return counts
