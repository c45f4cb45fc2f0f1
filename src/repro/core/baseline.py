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
from repro.core.schema import complete_counts
from repro.core.wedges import wedges


def _paired_wedges(edges: DataFrame, delta: int) -> DataFrame:
    """Wedge pairs passing IsTB, with canonical butterfly times attached.

    For start-vertex layer U: wedge i runs (s,m_i) @ t1 then (m_i,e) @ t2
    with s,e the U pair and m_i the L pair; for layer L the roles flip.
    Either way the canonical times are:

        t11 = w1.t1
        t12 = layer==U ? w2.t1 : w1.t2
        t21 = layer==U ? w1.t2 : w2.t1
        t22 = w2.t2
    """
    w = wedges(edges)
    w1 = w.select(
        "s", "e", "layer",
        F.col("m").alias("m1"), F.col("t1").alias("a1"), F.col("t2").alias("b1"),
    )
    w2 = w.select(
        "s", "e",
        F.col("m").alias("m2"), F.col("t1").alias("a2"), F.col("t2").alias("b2"),
    )
    is_u = F.col("layer") == 0
    pairs = (
        w1.join(w2, ["s", "e"])
        .where(F.col("m1") < F.col("m2"))
        .withColumn("t11", F.col("a1"))
        .withColumn("t12", F.when(is_u, F.col("a2")).otherwise(F.col("b1")))
        .withColumn("t21", F.when(is_u, F.col("b1")).otherwise(F.col("a2")))
        .withColumn("t22", F.col("b2"))
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
    typed = _paired_wedges(edges, delta).withColumn(
        "btype", F.expr(classify_sql("t11", "t12", "t21", "t22")).cast("long")
    )
    return complete_counts(spark, typed.groupBy("btype").agg(F.count("*").alias("cnt")))


def tbe(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """Baseline enumeration (TBE): canonical instance rows.

    Canonicalization maps gid-space wedge endpoints back to layer-local
    ids with ``u1 < u2``, ``v1 < v2`` and reorders the four times to
    ``tXY = t(uX, vY)``.
    """
    pairs = _paired_wedges(edges, delta)
    is_u = F.col("layer") == 0
    # gids of the U pair and the L pair; gid >> 1 is the layer-local id,
    # exact for every long (a double division rounds ids above 2**53)
    ua = F.when(is_u, F.col("s")).otherwise(F.col("m1"))
    ub = F.when(is_u, F.col("e")).otherwise(F.col("m2"))
    va = F.when(is_u, F.col("m1")).otherwise(F.col("s"))
    vb = F.when(is_u, F.col("m2")).otherwise(F.col("e"))
    inst = pairs.select(
        F.shiftright(ua, 1).alias("ua"),
        F.shiftright(ub, 1).alias("ub"),
        F.shiftright(va, 1).alias("va"),
        F.shiftright(vb, 1).alias("vb"),
        "t11", "t12", "t21", "t22",
        F.expr(classify_sql("t11", "t12", "t21", "t22")).cast("long").alias("btype"),
    )
    # sort each layer pair; swapping a pair swaps the matching time rows/cols
    u_sw = F.col("ua") > F.col("ub")
    v_sw = F.col("va") > F.col("vb")
    c11 = F.when(u_sw & v_sw, F.col("t22")).when(u_sw, F.col("t21")).when(v_sw, F.col("t12")).otherwise(F.col("t11"))
    c12 = F.when(u_sw & v_sw, F.col("t21")).when(u_sw, F.col("t22")).when(v_sw, F.col("t11")).otherwise(F.col("t12"))
    c21 = F.when(u_sw & v_sw, F.col("t12")).when(u_sw, F.col("t11")).when(v_sw, F.col("t22")).otherwise(F.col("t21"))
    c22 = F.when(u_sw & v_sw, F.col("t11")).when(u_sw, F.col("t12")).when(v_sw, F.col("t21")).otherwise(F.col("t22"))
    return inst.select(
        F.least("ua", "ub").alias("u1"),
        F.greatest("ua", "ub").alias("u2"),
        F.least("va", "vb").alias("v1"),
        F.greatest("va", "vb").alias("v2"),
        c11.alias("t11"), c12.alias("t12"), c21.alias("t21"), c22.alias("t22"),
        "btype",
    )


def tbc_sql(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """The 4-way-join SQL formulation executed by Catalyst → (btype, cnt)."""
    edges.createOrReplaceTempView("edges_tbc_sql")
    return spark.sql(sql_counts(delta, edges="edges_tbc_sql"))


def tbe_sql(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """The 4-way-join SQL enumeration executed by Catalyst → instances."""
    edges.createOrReplaceTempView("edges_tbe_sql")
    return spark.sql(sql_instances(delta, edges="edges_tbe_sql"))
