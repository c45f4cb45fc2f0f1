"""Shared conventions for temporal bipartite edge frames.

An edge frame is a Spark or pandas DataFrame with columns

    u : long   upper-layer vertex id (0-based, layer U)
    v : long   lower-layer vertex id (0-based, layer L)
    t : long   timestamp in milliseconds; pairwise distinct across the
               frame (the paper assumes tie-broken distinct timestamps)

Vertices from the two layers live in disjoint id spaces; where a single
"global" vertex id is needed (priorities, wedge endpoints) we use the
*gid* encoding ``gid = 2*u`` for upper vertices and ``gid = 2*v + 1``
for lower vertices, so ``gid % 2`` is the layer (0 = U, 1 = L).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql.types import LongType, StructField, StructType

#: number of non-isomorphic temporal butterfly types (Figure 1)
N_TYPES = 6

#: milliseconds per day — the paper quotes δ and time spans in days
MS_PER_DAY = 86_400_000

EDGE_SCHEMA = StructType(
    [
        StructField("u", LongType(), False),
        StructField("v", LongType(), False),
        StructField("t", LongType(), False),
    ]
)

#: schema of canonical enumeration results: a butterfly instance on
#: vertices {u1 < u2} x {v1 < v2} with tXY = time of edge (uX, vY)
INSTANCE_SCHEMA = StructType(
    [
        StructField("u1", LongType(), False),
        StructField("u2", LongType(), False),
        StructField("v1", LongType(), False),
        StructField("v2", LongType(), False),
        StructField("t11", LongType(), False),
        StructField("t12", LongType(), False),
        StructField("t21", LongType(), False),
        StructField("t22", LongType(), False),
        StructField("btype", LongType(), False),
    ]
)


def upper_gid(u: Column) -> Column:
    """gid of an upper-layer vertex."""
    return (u * 2).cast("long")


def lower_gid(v: Column) -> Column:
    """gid of a lower-layer vertex."""
    return (v * 2 + 1).cast("long")


def gid_layer(gid: Column) -> Column:
    """0 for U-layer gids, 1 for L-layer gids."""
    return (gid % 2).cast("long")


def days(n: float) -> int:
    """Convenience: a duration of ``n`` days in edge-frame time units."""
    return int(n * MS_PER_DAY)


def type_counts(df: DataFrame, per_type: list[Column]) -> DataFrame:
    """The six (btype, cnt) rows of a counting API, from one aggregate of
    ``df`` per type (``per_type[i]`` counts type ``i``).

    A global aggregate yields one row even over empty input, so every
    type gets its row, zero counts included, in type order.
    """
    cols = [f"c{i}" for i in range(N_TYPES)]
    row = df.agg(*[agg.alias(c) for agg, c in zip(per_type, cols)])
    stack = ", ".join(f"{i}L, {c}" for i, c in enumerate(cols))
    return row.selectExpr(f"stack({N_TYPES}, {stack}) as (btype, cnt)")


def counts_to_dict(counts_df: DataFrame) -> dict[int, int]:
    """Collect a (btype, cnt) frame into ``{type: count}`` with all 6 keys."""
    out = {i: 0 for i in range(N_TYPES)}
    for row in counts_df.collect():
        out[int(row["btype"])] = int(row["cnt"])
    return out
