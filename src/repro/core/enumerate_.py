"""TBE⁺ (§4.3) — optimized enumeration on Spark.

The Catalyst group walker of `repro.core.optimized` (one (s, e)
exchange, sorted partitions, ``mapInPandas``) with the Algorithm-5
range-traversal SetCross as the per-group kernel, which emits canonical
butterfly instances; each partition yields its instance rows.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.optimized import viable_groups, walk_groups
from repro.core.schema import INSTANCE_SCHEMA
from repro.core.wedge_set import enumerate_group

_COLS = [f.name for f in INSTANCE_SCHEMA.fields]


def tbe_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBE⁺: canonical instance rows (u1,u2,v1,v2,t11,t12,t21,t22,btype)."""

    def enumerate_partition(batches):
        rows = []
        for s, e, ws in viable_groups(batches):
            rows += enumerate_group(ws, delta, s % 2, s, e)
        yield pd.DataFrame(rows, columns=_COLS, dtype="int64")

    return walk_groups(edges, delta, enumerate_partition, INSTANCE_SCHEMA)
