"""Vertex priority (Definition 4) over the unified gid space.

``P_V(u) > P_V(w)`` iff ``|E(u)| > |E(w)|``, ties broken by vertex id.
The wedge phase (`repro.core.wedges`) only ever compares two vertices,
so it carries each half-edge endpoint's priority as a ``(degree, gid)``
struct and builds no rank. ``vertex_priority`` materializes the same
order as a dense integer rank, for inspection and tests.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.schema import lower_gid, upper_gid


def directed_halves(edges: DataFrame) -> DataFrame:
    """Both orientations of every temporal edge, in gid space.

    Output columns: ``a`` (from-gid), ``b`` (to-gid), ``t``. Each
    temporal edge contributes one row per direction, so ``a``'s row
    count per gid is exactly ``|E(a)|``.
    """
    up = edges.select(
        upper_gid(F.col("u")).alias("a"), lower_gid(F.col("v")).alias("b"), "t"
    )
    down = edges.select(
        lower_gid(F.col("v")).alias("a"), upper_gid(F.col("u")).alias("b"), "t"
    )
    return up.unionAll(down)


def vertex_priority(edges: DataFrame) -> DataFrame:
    """(gid, prio) with prio in [1, |V|], higher = higher priority.

    The rank is a single unpartitioned window sort over |V| rows,
    mirroring the paper's O(|V| log |V|) priority assignment. No counter
    calls it: the wedge phase compares (degree, gid) structs instead.
    """
    deg = directed_halves(edges).groupBy("a").agg(F.count("*").alias("deg"))
    w = Window.orderBy(F.col("deg").asc(), F.col("a").asc())
    return deg.select(
        F.col("a").alias("gid"), F.row_number().over(w).cast("long").alias("prio")
    )
