"""Test oracles and test-only names that no program path uses.

* ``wedge_pair_type`` — the paper's §4.1 wedge-set algebra for one pair:
  normalize both wedges to forward intervals, compare the coverage
  pattern {non-overlap, intersect, cover} and the direction pattern
  {same, different}, then apply the xor layer-conversion rule. Tests
  cross-check it against ``classify.classify_times`` on every ordering.
* ``count_group_quadratic`` — the combine kernels' reference: all
  cross-middle wedge pairs of one (s, e) group, classified one by one.
* ``tbe_sql`` — the 4-way-join SQL enumeration run by Spark SQL.
* ``dataset_stats`` — the Table-3 statistics of a generated analog.
* ``EDGE_SCHEMA`` — the non-null (u, v, t) long schema of an edge frame.
* ``TEST_SCALE`` — the dataset scale of the job tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.brute import sql_instances
from repro.core.schema import MS_PER_DAY, N_TYPES
from repro.core.wedge_set import FWD, HI, LO, M

EDGE_SCHEMA = StructType(
    [
        StructField("u", LongType(), False),
        StructField("v", LongType(), False),
        StructField("t", LongType(), False),
    ]
)

#: the reproduction scale of the job and dataset tests
TEST_SCALE = 0.0002

#: coverage patterns between two forward-normalized wedge intervals
NON_OVERLAP, INTERSECT, COVER = 0, 1, 2


def wedge_pair_type(
    lo_i: int, hi_i: int, fwd_i: bool, lo_j: int, hi_j: int, fwd_j: bool, layer: int
) -> int | None:
    """Type from two wedges sharing start/end vertices (paper §4.1).

    Each wedge is forward-normalized: ``lo < hi`` with ``fwd`` recording
    whether the original wedge ran start->middle->end in increasing time
    (subset A) or not (subset D). ``layer`` is the start-vertex layer
    (0 = U, 1 = L). Returns None when the four timestamps are not
    pairwise distinct (no temporal butterfly). The caller checks the
    duration constraint.
    """
    if lo_i > lo_j or (lo_i == lo_j and hi_i > hi_j):
        lo_i, hi_i, fwd_i, lo_j, hi_j, fwd_j = lo_j, hi_j, fwd_j, lo_i, hi_i, fwd_i
    # after the swap lo_i <= lo_j < hi_j, so only three collisions remain
    if lo_i == lo_j or hi_i == lo_j or hi_i == hi_j:
        return None
    if hi_i < lo_j:
        pattern = NON_OVERLAP
    elif hi_i < hi_j:
        pattern = INTERSECT
    else:
        pattern = COVER
    same_dir = fwd_i == fwd_j
    base = pattern if same_dir else pattern + 3
    return base ^ layer


def count_group_quadratic(wedges: list[tuple], delta: int, layer: int) -> np.ndarray:
    """All cross-middle pairs, classified one by one. O(|W|^2) reference."""
    counts = np.zeros(N_TYPES, dtype=np.int64)
    ws = list(wedges)
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            wi, wj = ws[i], ws[j]
            if wi[M] == wj[M]:
                continue
            if max(wi[HI], wj[HI]) - min(wi[LO], wj[LO]) > delta:
                continue
            bt = wedge_pair_type(
                wi[LO], wi[HI], wi[FWD], wj[LO], wj[HI], wj[FWD], layer
            )
            if bt is not None:
                counts[bt] += 1
    return counts


def tbe_sql(spark: SparkSession, edges: DataFrame, delta: int) -> DataFrame:
    """The 4-way-join SQL enumeration executed by Catalyst → instances."""
    edges.createOrReplaceTempView("edges_tbe_sql")
    return spark.sql(sql_instances(delta, edges="edges_tbe_sql"))


def dataset_stats(pdf: pd.DataFrame) -> dict[str, float]:
    """The Table-3 statistics of a generated edge frame."""
    return {
        "edges": int(len(pdf)),
        "upper": int(pdf["u"].nunique()),
        "lower": int(pdf["v"].nunique()),
        "span_days": float((pdf["t"].max() - pdf["t"].min()) / MS_PER_DAY),
    }
