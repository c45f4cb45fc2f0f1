"""Shared plumbing for the spark-submit entrypoints.

Each job exposes ``run(spark, ...) -> pandas.DataFrame`` (pure function,
testable with the session fixture) and a ``main()`` that builds a local
session for command-line use:

    spark-submit jobs/<name>.py [args]      # or: python jobs/<name>.py
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

ALGO_CHOICES = ("tbc", "tbc-sql", "tbc+", "tbc++", "tbe", "tbe+")


def make_session(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master("local[*]")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def resolve_count_algo(name: str):
    """``fn(spark, edges, delta)`` giving the six (btype, cnt) rows of
    algorithm ``name``. An enumerator's instances are counted per type,
    so reading the rows produces every instance."""
    from repro.core.baseline import tbc, tbc_sql, tbe
    from repro.core.enumerate_ import tbe_plus
    from repro.core.optimized import tbc_plus, tbc_pp
    from repro.core.schema import type_counts

    return {
        "tbc": tbc, "tbc-sql": tbc_sql, "tbc+": tbc_plus, "tbc++": tbc_pp,
        "tbe": lambda *a: type_counts(tbe(*a)),
        "tbe+": lambda *a: type_counts(tbe_plus(*a)),
    }[name]


def print_table(df: pd.DataFrame, title: str) -> None:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
