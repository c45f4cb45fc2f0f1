"""TBC⁺ / TBC⁺⁺ / TBE⁺ on Spark vs oracle, baseline, and brute force."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import tbc
from repro.core.brute import brute_counts, brute_instances, sql_counts
from repro.core.enumerate_ import tbe_plus
from repro.core.optimized import count_local, grouped_wedges, tbc_plus, tbc_pp
from repro.core.schema import EDGE_SCHEMA, counts_to_dict
from repro.core.wedges import wedges_pruned
from repro.oracle import assert_equivalent
from tests.util import canon_instances, edges_pdf, random_bipartite_pdf


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp], ids=["plus", "pp"])
@pytest.mark.parametrize("seed", range(4))
def test_optimized_matches_duckdb_oracle(spark, algo, seed):
    pdf = random_bipartite_pdf(6, 6, 60, seed=seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 3))
    got = algo(spark, spark.createDataFrame(pdf), delta)
    assert_equivalent(got, sql_counts(delta), edges=pdf)


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp], ids=["plus", "pp"])
@pytest.mark.parametrize("delta_frac", [0.02, 0.3, 1.0])
def test_optimized_delta_sweep_matches_baseline(spark, algo, delta_frac):
    pdf = random_bipartite_pdf(8, 8, 90, seed=21)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) * delta_frac))
    sdf = spark.createDataFrame(pdf)
    assert counts_to_dict(algo(spark, sdf, delta)) == counts_to_dict(
        tbc(spark, sdf, delta)
    )


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp], ids=["plus", "pp"])
def test_optimized_on_larger_random_graph(spark, algo):
    pdf = random_bipartite_pdf(15, 15, 300, seed=31)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 4))
    sdf = spark.createDataFrame(pdf)
    assert counts_to_dict(algo(spark, sdf, delta)) == counts_to_dict(
        tbc(spark, sdf, delta)
    )


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp], ids=["plus", "pp"])
def test_optimized_empty_result(spark, algo):
    for rows in ([(0, 0, 1), (1, 1, 5)], []):
        sdf = spark.createDataFrame(edges_pdf(rows), EDGE_SCHEMA)
        got = algo(spark, sdf, delta=10).collect()
        assert sorted(map(tuple, got)) == [(i, 0) for i in range(6)], rows
        assert tbe_plus(spark, sdf, delta=10).count() == 0, rows


def test_optimized_single_butterfly_each_type(spark):
    pos = {"u1v1": (0, 0), "u1v2": (0, 1), "u2v1": (1, 0), "u2v2": (1, 1)}
    orders = [
        (["u1v1", "u2v1", "u1v2", "u2v2"], 0),
        (["u1v1", "u1v2", "u2v1", "u2v2"], 1),
        (["u1v1", "u1v2", "u2v2", "u2v1"], 2),
        (["u1v1", "u2v1", "u2v2", "u1v2"], 3),
        (["u1v1", "u2v2", "u2v1", "u1v2"], 4),
        (["u1v1", "u2v2", "u1v2", "u2v1"], 5),
    ]
    for names, btype in orders:
        pdf = edges_pdf(
            [(pos[n][0], pos[n][1], t + 1) for t, n in enumerate(names)]
        )
        sdf = spark.createDataFrame(pdf)
        for algo in (tbc_plus, tbc_pp):
            got = counts_to_dict(algo(spark, sdf, delta=5))
            want = {i: 0 for i in range(6)}
            want[btype] = 1
            assert got == want, (names, btype, algo.__name__)


@pytest.mark.parametrize("seed", range(4))
def test_tbe_plus_matches_brute_instances(spark, seed):
    pdf = random_bipartite_pdf(5, 5, 50, seed=400 + seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    got = canon_instances(tbe_plus(spark, spark.createDataFrame(pdf), delta).toPandas())
    assert got == canon_instances(brute_instances(pdf, delta))


def test_tbe_plus_no_duplicate_instances(spark):
    pdf = random_bipartite_pdf(6, 6, 80, seed=55)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 2))
    inst = tbe_plus(spark, spark.createDataFrame(pdf), delta).toPandas()
    assert len(inst) == len(canon_instances(inst))


def test_grouped_wedges_only_viable_groups(spark):
    pdf = random_bipartite_pdf(6, 6, 60, seed=66)
    delta = int(pdf["t"].max())
    gw = grouped_wedges(spark.createDataFrame(pdf), delta).toPandas()
    if len(gw):
        nm = gw.groupby(["s", "e"])["m"].nunique()
        assert (nm > 1).all()


def test_grouped_wedges_adds_no_join(spark):
    """The viability filter rides on the (s, e) partitioning rather than
    joining a per-group aggregate back onto the wedges."""

    def joins(df):
        plan = df._jdf.queryExecution().optimizedPlan().toString()
        return sum(line.lstrip(" :+-").startswith("Join ") for line in plan.splitlines())

    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    assert joins(grouped_wedges(sdf, 100)) <= joins(wedges_pruned(sdf, 100))


@pytest.mark.parametrize("seed", range(3))
def test_count_local_matches_brute(seed):
    pdf = random_bipartite_pdf(6, 6, 70, seed=70 + seed)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) // 3))
    got = count_local(pdf, delta)
    want = brute_counts(pdf, delta)
    assert {i: int(got[i]) for i in range(6)} == want


def test_count_local_empty():
    pdf = edges_pdf([(0, 0, 1)])
    assert (count_local(pdf, 5) == np.zeros(6)).all()
