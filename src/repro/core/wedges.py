"""Temporal wedge enumeration (Definition 1) with vertex-priority filters.

A wedge ``∠(s, m, e, t1, t2)`` is a 2-hop path ``(s, m, t1), (m, e, t2)``
whose start-vertex ``s`` out-ranks both the middle ``m`` and the end
``e`` (the BFC-VP rule the paper inherits: each static butterfly is then
assembled exactly once, from its highest-priority vertex).

The rule only ever compares two vertices, so no global rank is built.
Each directed half-edge ``a → b`` carries both endpoints' priorities as
``(degree, gid)`` structs, the degrees being window counts over the
half-edges; Spark orders structs field by field, which is exactly
Definition 4. The wedges are then one self-join of the half-edges on
the middle vertex.

Two variants:

* ``wedges``        — the §3 baseline's wedge stream (no δ knowledge).
* ``wedges_pruned`` — the §4 stream with the Lemma-1 filter
  ``t1 ≠ t2 ∧ |t1 − t2| ≤ δ`` plus forward-normalized ``lo``/``hi``/
  ``fwd`` columns (the wedge-set A/D split) ready for the combine
  kernels.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.priority import directed_halves
from repro.core.schema import gid_layer


def _priority(end: str) -> F.Column:
    """Definition 4's priority of half-edge endpoint ``end`` as a
    (degree, gid) struct; the degree counts its temporal edges."""
    degree = F.count("*").over(Window.partitionBy(end))
    return F.struct(degree.alias("deg"), F.col(end).alias("gid"))


def wedges(edges: DataFrame) -> DataFrame:
    """All priority-filtered temporal wedges.

    Columns: ``s``, ``m``, ``e`` (gids), ``t1`` (s–m edge), ``t2`` (m–e
    edge), ``layer`` (of ``s``). Both layers serve as starting sides, as
    in the paper: whichever of a butterfly's four vertices has top
    priority becomes the start.
    """
    halves = directed_halves(edges).select(
        "a", "b", "t", _priority("a").alias("pa"), _priority("b").alias("pb")
    )
    left = halves.where(F.col("pa") > F.col("pb")).select(
        F.col("a").alias("s"), F.col("b").alias("m"), F.col("t").alias("t1"),
        F.col("pa").alias("ps"),
    )
    right = halves.select(
        F.col("a").alias("e"), F.col("b").alias("m"), F.col("t").alias("t2"),
        F.col("pa").alias("pe"),
    )
    return (
        left.join(right, "m")
        .where(F.col("ps") > F.col("pe"))
        .select("s", "m", "e", "t1", "t2", gid_layer(F.col("s")).alias("layer"))
    )


def wedges_pruned(edges: DataFrame, delta: int) -> DataFrame:
    """Lemma-1-pruned, forward-normalized wedges for the §4 kernels.

    Adds ``lo = min(t1, t2)``, ``hi = max(t1, t2)`` and ``fwd``
    (True = subset A, False = subset D) and keeps only wedges with
    ``t1 ≠ t2`` and ``hi − lo ≤ δ``, which no temporal butterfly can
    lack (Lemma 1).
    """
    w = wedges(edges).where(
        (F.col("t1") != F.col("t2"))
        & (F.abs(F.col("t1") - F.col("t2")) <= F.lit(delta))
    )
    return w.select(
        "s",
        "m",
        "e",
        "layer",
        F.least("t1", "t2").alias("lo"),
        F.greatest("t1", "t2").alias("hi"),
        (F.col("t1") < F.col("t2")).alias("fwd"),
    )
