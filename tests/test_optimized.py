"""TBC⁺ / TBC⁺⁺ / TBE⁺ on Spark vs oracle, baseline, and brute force."""
from __future__ import annotations

import re
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

from repro.core.baseline import tbc
from repro.core.brute import brute_counts, brute_instances, sql_counts
from repro.core.enumerate_ import tbe_plus
from repro.core.optimized import (
    count_local,
    grouped_wedges,
    tbc_plus,
    tbc_pp,
    viable_groups,
)
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


def test_tbc_pp_job_count(spark):
    """One TBC⁺⁺ call is a handful of Spark jobs: the wedge phase ranks
    no vertex globally and joins no priority table."""
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    sc = spark.sparkContext
    sc.setJobGroup("tbc-pp-jobs", "one TBC++ call")
    try:
        tbc_pp(spark, sdf, 100).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup("tbc-pp-jobs")) <= 8


def test_wedge_plan_is_one_self_join(spark):
    """The wedges are one join of the half-edges, with no single-partition
    sort for a global vertex rank."""
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    plan = wedges_pruned(sdf, 100)._jdf.queryExecution().executedPlan().toString()
    ops = [line.lstrip(" :+-").split(" ")[0] for line in plan.splitlines()]
    assert sum(op.endswith("Join") for op in ops) == 1
    assert "SinglePartition" not in plan


@contextmanager
def _conf(spark, **settings):
    """Session settings for one block, restored afterwards."""
    old = {k: spark.conf.get(k) for k in settings}
    try:
        for k, v in settings.items():
            spark.conf.set(k, v)
        yield
    finally:
        for k, v in old.items():
            spark.conf.set(k, v)


def _viable_rows(wedges_pdf):
    """Reference for ``grouped_wedges``: pandas keeps groups with two middles."""
    viable = wedges_pdf.groupby(["s", "e"])["m"].transform("nunique") > 1
    cols = ["s", "e", "m", "layer", "lo", "hi", "fwd"]
    return sorted(map(tuple, wedges_pdf.loc[viable, cols].itertuples(index=False)))


def test_groups_split_across_arrow_batches(spark):
    """Two rows per Arrow batch: nearly every (s, e) group straddles
    batches, so a walker that lost the group carried from one batch into
    the next would undercount."""
    pdf = random_bipartite_pdf(3, 4, 48, seed=5)
    delta = int(pdf["t"].max() - pdf["t"].min()) // 2
    sdf = spark.createDataFrame(pdf)
    pruned = wedges_pruned(sdf, delta).toPandas()
    assert pruned.groupby(["s", "e"]).size().max() > 10
    want = brute_counts(pdf, delta)
    with _conf(spark, **{"spark.sql.execution.arrow.maxRecordsPerBatch": "2"}):
        for algo in (tbc_plus, tbc_pp):
            assert counts_to_dict(algo(spark, sdf, delta)) == want, algo.__name__
        got = tbe_plus(spark, sdf, delta).toPandas()
        gw = grouped_wedges(sdf, delta).toPandas()
    assert len(got) == sum(want.values())
    assert canon_instances(got) == canon_instances(brute_instances(pdf, delta))
    assert sorted(map(tuple, gw.itertuples(index=False))) == _viable_rows(pruned)


def test_no_viable_group_and_empty_partitions(spark):
    """A tree with repeated edges: every (s, e) group has wedges but one
    middle, so nothing is viable, and 64 uncoalesced shuffle partitions
    outnumber the groups, so most partitions reach the walker empty."""
    path = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3)]
    rows = [(u, v, 10 * i + k) for i, (u, v) in enumerate(path) for k in range(3)]
    sdf = spark.createDataFrame(edges_pdf(rows))
    delta = 100
    with _conf(spark, **{
        "spark.sql.shuffle.partitions": "64",
        "spark.sql.adaptive.coalescePartitions.enabled": "false",
    }):
        pruned = wedges_pruned(sdf, delta).toPandas()
        assert 0 < pruned.groupby(["s", "e"]).ngroups < 64
        assert (pruned.groupby(["s", "e"])["m"].nunique() == 1).all()
        for algo in (tbc_plus, tbc_pp):
            got = sorted(map(tuple, algo(spark, sdf, delta).collect()))
            assert got == [(i, 0) for i in range(6)], algo.__name__
        assert tbe_plus(spark, sdf, delta).count() == 0
        assert grouped_wedges(sdf, delta).count() == 0


def test_walker_plan_has_one_exchange_above_the_wedge_join(spark):
    """Above the wedge join: one (s, e) hash exchange, a sort and the
    ``MapInPandas`` walker; no per-group Python operator and no window.
    The only other exchange is the single-partition one of TBC⁺⁺'s sum."""
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    for df in (tbc_pp(spark, sdf, 100), tbe_plus(spark, sdf, 100)):
        plan = df._jdf.queryExecution().executedPlan().toString().splitlines()
        top = plan[: next(i for i, line in enumerate(plan) if "Join " in line)]
        ops = [line.lstrip(" :+-").split(" ")[0] for line in top]
        assert "MapInPandas" in ops
        assert "FlatMapGroupsInPandas" not in ops and "Window" not in ops
        exchanges = [line for line in top if "Exchange " in line]
        hashed = [x for x in exchanges if "hashpartitioning" in x]
        assert len(hashed) == 1
        assert re.search(r"hashpartitioning\(s#\d+L, e#\d+L, \d+\)", hashed[0])
        assert all("SinglePartition" in x for x in exchanges if x not in hashed)


def _batch(*rows):
    """One Arrow-like batch of pruned wedges ``(s, e, m, lo, hi, fwd)``."""
    pdf = pd.DataFrame(list(rows), columns=["s", "e", "m", "lo", "hi", "fwd"])
    pdf = pdf.astype({c: "int64" for c in ("s", "e", "m", "lo", "hi")} | {"fwd": bool})
    pdf.insert(3, "layer", pdf["s"] % 2)
    return pdf


def test_viable_groups_walks_groups_across_batches():
    """No Spark: an empty batch in mid-partition, a group over three
    batches, one-row batches, and a one-middle group between two viable
    groups, which the walker skips."""
    batches = [
        _batch((0, 2, 1, 10, 11, True), (0, 2, 3, 12, 14, False)),
        _batch(),
        _batch((0, 2, 5, 13, 15, True)),
        _batch((0, 2, 1, 16, 17, False), (0, 4, 1, 10, 12, True)),
        _batch((0, 4, 1, 13, 18, False)),
        _batch((1, 3, 0, 20, 21, True), (1, 3, 2, 22, 23, True)),
        _batch(),
    ]
    assert list(viable_groups(iter(batches))) == [
        (0, 2, [(1, 10, 11, True), (3, 12, 14, False), (5, 13, 15, True), (1, 16, 17, False)]),
        (1, 3, [(0, 20, 21, True), (2, 22, 23, True)]),
    ]
    assert list(viable_groups(iter([_batch()]))) == []


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
