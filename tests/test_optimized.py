"""TBC⁺ / TBC⁺⁺ / TBE⁺ on Spark vs oracle, baseline, and brute force."""
from __future__ import annotations

import os
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import chain

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.sampling import approx_tbc_local
from repro.approx.sgrapp import sgrapp_tbc
from repro.core.baseline import tbc, tbc_sql, tbe
from repro.core.brute import brute_counts, brute_instances, sql_counts
from repro.core.enumerate_ import tbe_plus
from repro.core.optimized import (
    count_local,
    grouped_wedges,
    start_bins,
    tbc_plus,
    tbc_pp,
    walk,
)
from repro.core.schema import counts_to_dict
from repro.core.wedge_set import count_group_pp
from repro.core.wedges import wedges_pruned
from repro.streaming.graph import StreamGraph
from repro.oracle import assert_equivalent
from tests.reference import EDGE_SCHEMA
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
        assert _matches_brute(spark, tbe_plus, pdf, 5) == 1


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


def test_grouped_wedges_keeps_only_groups_with_two_middles(spark):
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


def _stages_of(spark, group: str, action) -> list:
    """Run ``action`` under the new job group ``group``; the stage infos
    of its jobs, one list per job."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st_ = sc.statusTracker()
    return [
        [st_.getStageInfo(s) for s in st_.getJobInfo(j).stageIds]
        for j in st_.getJobIdsForGroup(group)
    ]


def test_tbc_pp_job_count(spark):
    """One TBC⁺⁺ call is two Spark jobs: the collect of the edges and
    the tasks over the broadcast graph; reading its result is none."""
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    jobs = _stages_of(spark, "tbc-pp-jobs", lambda: tbc_pp(spark, sdf, 100).collect())
    assert len(jobs) <= 2


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp], ids=["plus", "pp"])
def test_count_runs_a_python_task_per_core_and_drops_its_broadcast(spark, algo):
    """Besides the edges' collect, a counting call runs one Python task
    per core, and its broadcast graph leaves no pickled file behind."""
    sc = spark.sparkContext
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    before = set(os.listdir(sc._temp_dir))
    jobs = _stages_of(spark, f"tasks-{algo.__name__}", lambda: algo(spark, sdf, 100).collect())
    stages = [info for job in jobs for info in job]
    python = [i.numCompletedTasks for i in stages if not i.name.startswith("toPandas")]
    assert python == [sc.defaultParallelism]
    assert set(os.listdir(sc._temp_dir)) <= before


def test_tbc_pp_workers_keep_zip_listings(spark):
    """After a TBC⁺⁺ call, the reused Python workers that ran its tasks
    keep their zip listings across tasks (Python < 3.12), and the call's
    counts are unchanged. The probe lands on some of those workers."""
    pdf = random_bipartite_pdf(6, 6, 60, seed=66)
    got = counts_to_dict(tbc_pp(spark, spark.createDataFrame(pdf), 100))
    assert got == brute_counts(pdf, 100) and sum(got.values()) > 0

    def probe(_part):
        import zipimport

        yield zipimport.zipimporter.invalidate_caches.__module__ == "repro.streaming.graph"

    sc = spark.sparkContext
    n = sc.defaultParallelism
    kept = sc.parallelize(range(n), n).mapPartitions(probe).collect()
    assert any(kept) == (sys.version_info < (3, 12))


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


def test_tbe_plus_is_one_python_stage_over_the_start_bins(spark):
    """TBE⁺'s plan is one ``MapInPandas`` over the bin ids, with no join
    and no exchange. A read of it runs the edges' collect and one Python
    task per core, whose Arrow workers then keep their zip listings
    (Python < 3.12)."""
    sc = spark.sparkContext
    n = sc.defaultParallelism
    pdf = random_bipartite_pdf(6, 6, 60, seed=66)
    sdf = spark.createDataFrame(pdf)
    plan = tbe_plus(spark, sdf, 100)._jdf.queryExecution().executedPlan().toString()
    ops = [line.lstrip(" :+-").split(" ")[0] for line in plan.splitlines()]
    assert ops.count("MapInPandas") == 1
    assert "Join" not in plan and "Exchange" not in plan
    rows = []
    jobs = _stages_of(
        spark, "tbe-plus-tasks", lambda: rows.extend(tbe_plus(spark, sdf, 100).collect())
    )
    stages = [info for job in jobs for info in job]
    python = [i.numCompletedTasks for i in stages if not i.name.startswith("toPandas")]
    assert python == [n]
    assert _rows(rows) == _rows(brute_instances(pdf, 100).itertuples(index=False))

    def probe(batches):
        import zipimport

        for _ in batches:
            pass
        kept = zipimport.zipimporter.invalidate_caches.__module__ == "repro.streaming.graph"
        yield pd.DataFrame({"kept": [kept]})

    kept = spark.range(0, n, 1, n).mapInPandas(probe, "kept boolean").collect()
    assert any(r["kept"] for r in kept) == (sys.version_info < (3, 12))


def test_grouped_wedges_runs_no_python(spark):
    """The benchmark's reference groups are pure Catalyst: a window over
    (s, e) keeps the groups with two middles."""
    sdf = spark.createDataFrame(random_bipartite_pdf(6, 6, 60, seed=66))
    plan = grouped_wedges(sdf, 100)._jdf.queryExecution().executedPlan().toString()
    assert "Window" in plan
    for op in ("MapInPandas", "ArrowEvalPython", "BatchEvalPython"):
        assert op not in plan, op


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


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 12)), max_size=40
    ),
    delta=st.integers(0, 12),
    data=st.data(),
)
def test_walk_split_over_any_partition_of_the_starts(rows, delta, data):
    """No Spark: times drawn from 13 values, so ties and duplicate rows
    abound. Walking each part of any partition of the starts gives the
    walk over all starts. The k units ``(s, j, k)`` of a start, for any
    k, yield its groups once between them, as do the units of
    ``start_bins`` for any bin count, and their counts are
    ``brute_counts``. Each unit is walked on its own, as on its own task,
    so a deal that differed between walks would lose or repeat a group."""
    pdf = edges_pdf(rows)
    g = StreamGraph.from_pdf(pdf)
    starts = list(g.adj)
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(starts), max_size=len(starts)))
    parts = [[s for s, k in zip(starts, labels) if k == b] for b in range(4)]

    def groups(units):
        return sorted(
            (s, e, sorted(ws)) for u in units for s, e, ws in walk(g, [u], delta)
        )

    def whole_starts(ss):
        return groups((s, 0, 1) for s in ss)

    whole = whole_starts(starts)
    assert len({(s, e) for s, e, _ws in whole}) == len(whole)
    assert sorted(chain.from_iterable(map(whole_starts, parts))) == whole
    for s in starts:
        for k in range(1, 5):
            assert groups((s, j, k) for j in range(k)) == whole_starts([s])
    want = brute_counts(pdf, delta)
    for n in (1, 3, 4):
        bins = start_bins(g, n)
        assert len(bins) == n
        got = groups(chain.from_iterable(bins))
        assert got == whole
        counts = sum((count_group_pp(ws, delta, s % 2) for s, _e, ws in got), np.zeros(6))
        assert {i: int(c) for i, c in enumerate(counts)} == want


def _hub_pdf():
    """A sparse random graph plus upper vertex 6, which meets every lower
    vertex four times in a burst after the rest: the top-priority start."""
    base = random_bipartite_pdf(6, 6, 30, seed=12)  # times in [0, 120)
    hub = edges_pdf([(6, i % 6, 120 + i) for i in range(24)])
    return pd.concat([base, hub], ignore_index=True)


def _two_butterflies_pdf():
    """Two upper and two lower vertices, one of whose edges repeats."""
    return edges_pdf([(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (0, 0, 5)])


@pytest.mark.parametrize("algo", [tbc_plus, tbc_pp, tbe_plus], ids=["plus", "pp", "tbe"])
def test_tasks_split_a_hub_and_leave_bins_empty(spark, algo):
    """The hub start walks most wedges, so on 4 bins its units land in
    several bins and no bin walks more than 1.5/4 of the wedges. With no
    edge no start out-ranks a middle, so every bin is empty and the
    counts are zero."""
    hub, empty = _hub_pdf(), edges_pdf([])
    g = StreamGraph.from_pdf(hub)
    per_start = Counter()
    for s, _e, ws in walk(g, [(s, 0, 1) for s in g.adj], 144):
        per_start[s] += len(ws)
    (top, most), = per_start.most_common(1)
    assert most > per_start.total() / 2
    bins = start_bins(g, 4)
    assert sum(any(s == top for s, _j, _k in b) for b in bins) >= 2
    walked = [sum(len(ws) for _s, _e, ws in walk(g, b, 144)) for b in bins]
    assert sum(walked) == per_start.total()
    assert max(walked) <= 1.5 / 4 * per_start.total()
    n = spark.sparkContext.defaultParallelism
    assert start_bins(StreamGraph.from_pdf(empty), n) == [[]] * n
    for pdf, delta in ((hub, 144), (_two_butterflies_pdf(), 10)):
        assert _matches_brute(spark, algo, pdf, delta) > 0
    assert _matches_brute(spark, algo, empty, 10) == 0
    if algo is tbc_pp:
        got = tbc_pp(spark, spark.createDataFrame(hub, EDGE_SCHEMA), 144)
        assert_equivalent(got, sql_counts(144), edges=hub)


def _rows(rows) -> list[tuple]:
    """Instance rows as a sorted list of int tuples: a multiset, since
    repeated edge rows repeat their butterflies."""
    return sorted(tuple(map(int, r)) for r in rows)


def _matches_brute(spark, algo, pdf, delta) -> int:
    """Asserts that ``algo`` on ``pdf`` gives brute force's instance rows
    (an enumerator) or six counts (a counter); returns the butterflies
    found."""
    got = algo(spark, spark.createDataFrame(pdf, EDGE_SCHEMA), delta)
    if algo in (tbe_plus, tbe):
        rows = _rows(got.collect())
        assert rows == _rows(brute_instances(pdf, delta).itertuples(index=False))
        return len(rows)
    counts = counts_to_dict(got)
    assert counts == brute_counts(pdf, delta), algo.__name__
    return sum(counts.values())


def _local_counts(pdf, delta) -> dict[str, np.ndarray]:
    """The in-process paths' counts on ``pdf`` in time order, which
    sGrapp's ``split_windows`` requires; sGrapp gets a single window, so
    it estimates nothing."""
    chrono = pdf.sort_values("t", kind="stable", ignore_index=True)
    return {
        "count_local": count_local(chrono, delta),
        "approx_tbc_local": approx_tbc_local(chrono, delta, p=1.0),
        "sgrapp_tbc": sgrapp_tbc(chrono, delta, n_t_w=chrono["t"].nunique()),
    }


def _tie_graphs() -> dict[str, pd.DataFrame]:
    """Three graphs whose times come from 13 values, so equal times
    abound, and whose rows repeat."""
    rng = np.random.default_rng(13)
    rand = edges_pdf(list(zip(
        rng.integers(0, 4, 36).tolist(), rng.integers(0, 4, 36).tolist(),
        rng.integers(0, 13, 36).tolist(),
    )))
    hub = edges_pdf(
        [(0, v, (3 * v + k) % 13) for v in range(6) for k in range(3)]
        + [(1 + v % 3, v, (5 * v) % 13) for v in range(6)] * 2
    )
    full = edges_pdf([(u, v, (u * 4 + v * 3 + k * 5) % 13)
                      for u in range(3) for v in range(3) for k in range(2)] * 2)
    return {"random": pd.concat([rand, rand.head(8)], ignore_index=True),
            "hub": hub, "complete": full}


@pytest.mark.parametrize("name", ["random", "hub", "complete"])
def test_tied_and_repeated_rows_match_brute(spark, name):
    """Timestamp ties, repeated rows and δ = 0: every Spark enumerator
    gives brute force's instances, and every Spark and in-process counter
    its counts. A TBE⁺ frame read before and after a TBC⁺⁺ call, whose
    broadcast is destroyed, gives the same rows."""
    pdf = _tie_graphs()[name]
    assert pdf.duplicated().any() and pdf["t"].duplicated().any()
    algos = (tbe_plus, tbc_pp, tbc, tbc_sql, tbc_plus, tbe)
    found = {delta: [_matches_brute(spark, algo, pdf, delta) for algo in algos]
             for delta in (0, 4, 12)}
    assert set(found[0]) == {0} and min(found[12]) > 0
    for delta in found:
        want = list(brute_counts(pdf, delta).values())
        for path, got in _local_counts(pdf, delta).items():
            assert np.array_equal(got, want), (path, delta)
    frame = tbe_plus(spark, spark.createDataFrame(pdf, EDGE_SCHEMA), 12)
    first = _rows(frame.collect())
    tbc_pp(spark, spark.createDataFrame(pdf, EDGE_SCHEMA), 12)
    assert _rows(frame.collect()) == first == _rows(
        brute_instances(pdf, 12).itertuples(index=False)
    )
