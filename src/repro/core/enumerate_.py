"""TBE⁺ (§4.3) — optimized enumeration on Spark.

The counters' loop of `repro.core.optimized` with the Algorithm-5
range-traversal SetCross as the per-group kernel, which emits canonical
butterfly instances: one ``mapInPandas`` task per bin of
``optimized.start_bins`` walks its units, a hot start's share of (s, e)
groups each, over the graph held in the task's closure.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.optimized import graph_and_bins, walk
from repro.core.schema import INSTANCE_SCHEMA
from repro.core.wedge_set import enumerate_group
from repro.streaming.graph import keep_zip_listings


def tbe_plus(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """TBE⁺: canonical instance rows (u1,u2,v1,v2,t11,t12,t21,t22,btype).
    The edges are collected now; the rows are enumerated on each read."""
    g, bins = graph_and_bins(spark, edges)

    def run(batches):
        keep_zip_listings()
        for pdf in batches:
            for i in pdf["id"].tolist():
                rows = [
                    row
                    for s, e, ws in walk(g, bins[i], delta)
                    for row in enumerate_group(ws, delta, s % 2, s, e)
                ]
                yield pd.DataFrame(
                    np.array(rows, dtype=np.int64).reshape(-1, 9),
                    columns=INSTANCE_SCHEMA.names,
                )

    return spark.range(0, len(bins), 1, len(bins)).mapInPandas(run, INSTANCE_SCHEMA)
