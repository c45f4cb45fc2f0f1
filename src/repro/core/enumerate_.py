"""TBE⁺ (§4.3) — optimized enumeration on Spark.

Same grouped dataflow as TBC⁺/TBC⁺⁺, but the per-group kernel is the
Algorithm-5 range-traversal SetCross which emits canonical butterfly
instances instead of counters.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.optimized import grouped_wedges, wedge_tuples
from repro.core.schema import INSTANCE_SCHEMA
from repro.core.wedge_set import enumerate_group

_COLS = [f.name for f in INSTANCE_SCHEMA.fields]


def tbe_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBE⁺: canonical instance rows (u1,u2,v1,v2,t11,t12,t21,t22,btype)."""

    def run_group(key, pdf):
        s, e = int(key[0]), int(key[1])
        rows = enumerate_group(wedge_tuples(pdf), delta, s % 2, s, e)
        return pd.DataFrame(rows, columns=_COLS, dtype="int64")

    return (
        grouped_wedges(edges, delta)
        .groupBy("s", "e")
        .applyInPandas(run_group, schema=INSTANCE_SCHEMA)
    )
