"""TBC / TBE baselines vs the DuckDB oracle and the pandas brute force."""
from __future__ import annotations

import pytest

from repro.core.baseline import tbc, tbc_sql, tbe
from repro.core.brute import brute_counts, brute_instances, sql_counts
from repro.core.schema import counts_to_dict
from repro.oracle import assert_equivalent
from tests.reference import tbe_sql
from tests.util import canon_instances, edges_pdf, random_bipartite_pdf


@pytest.mark.parametrize("seed", range(6))
def test_tbc_matches_duckdb_oracle(spark, seed):
    pdf = random_bipartite_pdf(6, 6, 60, seed=seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 3))
    got = tbc(spark, spark.createDataFrame(pdf), delta)
    assert_equivalent(got, sql_counts(delta), edges=pdf)


@pytest.mark.parametrize("delta_frac", [0.02, 0.2, 1.0])
def test_tbc_delta_sweep_matches_oracle(spark, delta_frac):
    pdf = random_bipartite_pdf(8, 8, 90, seed=11)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) * delta_frac))
    got = tbc(spark, spark.createDataFrame(pdf), delta)
    assert_equivalent(got, sql_counts(delta), edges=pdf)


def test_tbc_single_butterfly_types(spark):
    pdf = edges_pdf([(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)])
    got = counts_to_dict(tbc(spark, spark.createDataFrame(pdf), delta=3))
    assert got == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}


def test_tbc_returns_six_rows_even_when_empty(spark):
    pdf = edges_pdf([(0, 0, 1), (1, 1, 2)])
    got = tbc(spark, spark.createDataFrame(pdf), delta=10)
    assert [r["btype"] for r in got.collect()] == list(range(6))
    assert counts_to_dict(got) == {i: 0 for i in range(6)}


@pytest.mark.parametrize("seed", range(4))
def test_tbc_sql_matches_tbc(spark, seed):
    pdf = random_bipartite_pdf(6, 6, 50, seed=100 + seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    sdf = spark.createDataFrame(pdf)
    assert counts_to_dict(tbc(spark, sdf, delta)) == counts_to_dict(
        tbc_sql(spark, sdf, delta)
    )


@pytest.mark.parametrize("seed", range(4))
def test_tbe_matches_brute_instances(spark, seed):
    pdf = random_bipartite_pdf(5, 5, 45, seed=200 + seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    got = canon_instances(tbe(spark, spark.createDataFrame(pdf), delta).toPandas())
    want = canon_instances(brute_instances(pdf, delta))
    assert got == want


def test_tbe_exact_for_ids_above_2_pow_53(spark):
    """Layer-local ids come back exactly, not rounded through a double."""
    pdf = random_bipartite_pdf(4, 4, 40, seed=204)
    pdf["u"] = 2 * pdf["u"] + 2**53 + 1
    pdf["v"] = 2 * pdf["v"] + 2**53 + 1
    delta = int(pdf["t"].max())
    got = canon_instances(tbe(spark, spark.createDataFrame(pdf), delta).toPandas())
    want = canon_instances(brute_instances(pdf, delta))
    assert want and got == want


def test_tbe_sql_matches_brute_instances(spark):
    pdf = random_bipartite_pdf(5, 5, 45, seed=300)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    got = canon_instances(tbe_sql(spark, spark.createDataFrame(pdf), delta).toPandas())
    assert got == canon_instances(brute_instances(pdf, delta))


def test_tbe_count_agrees_with_tbc(spark):
    pdf = random_bipartite_pdf(6, 6, 60, seed=42)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    sdf = spark.createDataFrame(pdf)
    inst = tbe(spark, sdf, delta).toPandas()
    counts = counts_to_dict(tbc(spark, sdf, delta))
    got = {i: 0 for i in range(6)}
    for b, c in inst.groupby("btype").size().items():
        got[int(b)] = int(c)
    assert got == counts


def test_tbc_multigraph_parallel_edges(spark):
    pdf = edges_pdf(
        [(0, 0, 1), (0, 0, 5), (1, 0, 2), (0, 1, 3), (1, 1, 4), (1, 1, 9)]
    )
    delta = 8
    got = counts_to_dict(tbc(spark, spark.createDataFrame(pdf), delta))
    assert got == brute_counts(pdf, delta)
    assert sum(got.values()) >= 2  # parallel edges create distinct butterflies
