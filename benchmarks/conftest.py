"""Benchmark-suite fixtures: warm the Spark JVM, Arrow path and python
workers once, so the first measured benchmark is not charged for
session/executor startup (the paper likewise excludes loading time).

The benchmarks run the ``jobs/`` entry points' ``run()`` functions, so
``jobs/`` goes on ``sys.path`` here, as in ``tests/test_jobs.py``."""
from __future__ import annotations

import sys
from pathlib import Path

import pandas as pd
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "jobs"))


@pytest.fixture(scope="session", autouse=True)
def _spark_warmup(spark):
    pdf = pd.DataFrame({"u": [0, 1], "v": [0, 1], "t": [1, 2]}).astype("int64")
    sdf = spark.createDataFrame(pdf)
    sdf.groupBy("u").applyInPandas(lambda p: p, schema="u long, v long, t long").count()
    yield
