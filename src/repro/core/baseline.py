"""TBC / TBE — the §3 baselines, expressed as pure-Catalyst dataflows.

The paper's TBC enumerates priority-filtered wedges, then pairs wedges
sharing (start, end) with different middles and applies the ``IsTB``
filter and type mapping. In Spark that is literally a self-join of the
wedge frame on (s, e) followed by filter + CASE + aggregate, so the
whole baseline (including its quadratic wedge-pair blow-up, which the
evaluation exposes) lives in Catalyst.

``tbc_sql`` additionally runs the independent 4-way-join SQL (the same
text the DuckDB oracle executes) through Spark SQL — a second,
wedge-free Catalyst implementation used for cross-validation.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.brute import sql_counts, sql_instances
from repro.core.classify import classify_sql
from repro.core.schema import N_TYPES, type_counts
from repro.core.wedges import wedges


def _paired_wedges(edges: DataFrame, delta: int) -> DataFrame:
    """Wedge pairs passing IsTB, as canonical butterflies in gid space.

    Each wedge is first normalized to its end pair ``x < y``, with ``tx``
    and ``ty`` the times of its x–m and y–m edges; the join then pairs
    wedges on (x, y) with middles ``m1 < m2``. Both pairs are thus
    ordered, and with ``tXY`` the time of edge (uX, vY):

        U start: u1, u2, v1, v2 = x, y, m1, m2;  t11, t12, t21, t22 = tx1, tx2, ty1, ty2
        L start: u1, u2, v1, v2 = m1, m2, x, y;  t11, t12, t21, t22 = tx1, ty1, tx2, ty2
    """
    x_first = F.col("s") < F.col("e")
    w = wedges(edges).select(
        F.least("s", "e").alias("x"),
        F.greatest("s", "e").alias("y"),
        "layer",
        "m",
        F.when(x_first, F.col("t1")).otherwise(F.col("t2")).alias("tx"),
        F.when(x_first, F.col("t2")).otherwise(F.col("t1")).alias("ty"),
    )
    w1 = w.select(
        "x", "y", "layer",
        F.col("m").alias("m1"), F.col("tx").alias("tx1"), F.col("ty").alias("ty1"),
    )
    w2 = w.select(
        "x", "y",
        F.col("m").alias("m2"), F.col("tx").alias("tx2"), F.col("ty").alias("ty2"),
    )
    is_u = F.col("layer") == 0
    pairs = w1.join(w2, ["x", "y"]).where(F.col("m1") < F.col("m2")).select(
        F.when(is_u, F.col("x")).otherwise(F.col("m1")).alias("u1"),
        F.when(is_u, F.col("y")).otherwise(F.col("m2")).alias("u2"),
        F.when(is_u, F.col("m1")).otherwise(F.col("x")).alias("v1"),
        F.when(is_u, F.col("m2")).otherwise(F.col("y")).alias("v2"),
        F.col("tx1").alias("t11"),
        F.when(is_u, F.col("tx2")).otherwise(F.col("ty1")).alias("t12"),
        F.when(is_u, F.col("ty1")).otherwise(F.col("tx2")).alias("t21"),
        F.col("ty2").alias("t22"),
    )
    ts = [F.col(c) for c in ("t11", "t12", "t21", "t22")]
    distinct = (
        (ts[0] != ts[1]) & (ts[0] != ts[2]) & (ts[0] != ts[3])
        & (ts[1] != ts[2]) & (ts[1] != ts[3]) & (ts[2] != ts[3])
    )
    within = (F.greatest(*ts) - F.least(*ts)) <= F.lit(delta)
    return pairs.where(distinct & within)


def tbc(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """Baseline temporal butterfly counting (Algorithm 1) → (btype, cnt)."""
    btype = F.expr(classify_sql("t11", "t12", "t21", "t22"))
    return type_counts(
        _paired_wedges(edges, delta), [F.count_if(btype == i) for i in range(N_TYPES)]
    )


def tbe(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """Baseline enumeration (TBE): canonical instance rows.

    The wedge pairs are already canonical in gid space; ``gid >> 1`` is
    the layer-local id, exact for every long (a double division rounds
    ids above 2**53).
    """
    return _paired_wedges(edges, delta).select(
        *[F.shiftright(c, 1).alias(c) for c in ("u1", "u2", "v1", "v2")],
        "t11", "t12", "t21", "t22",
        F.expr(classify_sql("t11", "t12", "t21", "t22")).cast("long").alias("btype"),
    )


def tbc_sql(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """The 4-way-join SQL formulation executed by Catalyst → (btype, cnt)."""
    edges.createOrReplaceTempView("edges_tbc_sql")
    return spark.sql(sql_counts(delta, edges="edges_tbc_sql"))


def tbe_sql(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """The 4-way-join SQL enumeration executed by Catalyst → instances."""
    edges.createOrReplaceTempView("edges_tbe_sql")
    return spark.sql(sql_instances(delta, edges="edges_tbe_sql"))
