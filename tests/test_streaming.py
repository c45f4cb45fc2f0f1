"""Streaming algorithms vs from-scratch recomputation on every window."""
from __future__ import annotations

import importlib
import os
import sys
import zipfile
import zipimport

import numpy as np
import pytest

from repro.core.brute import brute_counts
from repro.core.optimized import count_local
from repro.core.schema import days
from repro.streaming.graph import StreamGraph, keep_zip_listings
from repro.streaming.stbc import edge_delta, stbc_delete_batch, stbc_insert_batch
from repro.streaming.stbc_plus import stbc_plus_batch
from repro.streaming.window import sliding_window_stbc, sliding_window_stbc_plus
from repro.synth_data import temporal_bipartite_pdf
from tests.util import edges_pdf, random_bipartite_pdf


def _stream(n=240, seed=0):
    return temporal_bipartite_pdf(
        n_upper=12,
        n_lower=14,
        n_edges=n,
        span_days=30.0,
        follow_frac=0.4,
        gap_days=1.0,
        seed=seed,
    )


DELTA = days(10)


def _n_edges(g: StreamGraph) -> int:
    """Edges held by ``g``: each sits in both endpoints' lists."""
    return sum(map(len, g.adj.values())) // 2


class TestStreamGraph:
    def test_insert_delete_roundtrip(self):
        g = StreamGraph.from_pdf(edges_pdf([(0, 0, 1), (1, 0, 2), (0, 1, 3)]))
        assert _n_edges(g) == 3
        g.delete(1, 0, 2)
        assert _n_edges(g) == 2
        assert g.adj == {0: [(1, 1), (3, 3)], 1: [(1, 0)], 3: [(3, 0)]}

    def test_delete_missing_raises(self):
        """An absent edge raises and leaves ``adj`` as it was, also when
        its endpoints have no edges."""
        g = StreamGraph.from_pdf(edges_pdf([(0, 0, 5), (1, 2, 7)]))
        before = {k: list(v) for k, v in g.adj.items()}
        for u, v, t in ((0, 0, 6), (3, 0, 5), (0, 4, 5), (8, 9, 1)):
            with pytest.raises(KeyError):
                g.delete(u, v, t)
        assert g.adj == before and _n_edges(g) == 2

    def test_long_stream_keeps_only_live_vertices(self):
        """A vertex leaves ``adj`` with its last edge, so a long stream
        through a small window does not grow the snapshot."""
        rng = np.random.default_rng(0)
        g, live = StreamGraph(), []
        for t in range(2000):
            edge = (int(rng.integers(500)), int(rng.integers(500)), t)
            g.insert(*edge)
            live.append(edge)
            if len(live) > 10:
                g.delete(*live.pop(0))
        want = {2 * u for u, _, _ in live} | {2 * v + 1 for _, v, _ in live}
        assert set(g.adj) == want
        assert all(g.adj.values()) and _n_edges(g) == len(live)

    def test_range_query(self):
        g = StreamGraph.from_pdf(
            edges_pdf([(0, 0, 1), (0, 1, 5), (0, 2, 9), (0, 3, 12)])
        )
        got = [t for t, _ in g.neighbors_in(0, 5, 9)]
        assert got == [5, 9]

    def test_out_of_order_insert_stays_sorted(self):
        g = StreamGraph()
        for t in (5, 1, 9, 3):
            g.insert(0, t, t)
        assert [t for t, _ in g.adj[0]] == [1, 3, 5, 9]


class TestEdgeDelta:
    def test_counts_butterflies_containing_edge(self):
        # one T0 butterfly; each member edge sees exactly it
        pdf = edges_pdf([(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)])
        g = StreamGraph.from_pdf(pdf)
        for u, v, t in pdf.itertuples(index=False):
            d = edge_delta(g, int(u), int(v), int(t), delta=5)
            assert d.tolist() == [1, 0, 0, 0, 0, 0]

    def test_restricted_ranges_attribute_min_and_max(self):
        pdf = edges_pdf([(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)])
        g = StreamGraph.from_pdf(pdf)
        # only the min-edge (t=1) sees it under the delete range (t, t+δ]
        per_edge = [
            edge_delta(g, int(u), int(v), int(t), 5, lo=int(t) + 1, hi=int(t) + 5).sum()
            for u, v, t in pdf.itertuples(index=False)
        ]
        assert per_edge == [1, 0, 0, 0]
        # only the max-edge (t=4) sees it under the insert range [t-δ, t)
        per_edge = [
            edge_delta(g, int(u), int(v), int(t), 5, lo=int(t) - 5, hi=int(t) - 1).sum()
            for u, v, t in pdf.itertuples(index=False)
        ]
        assert per_edge == [0, 0, 0, 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_full_range_deltas_sum_to_4x_total(self, seed):
        """Every butterfly contains 4 edges, so summing full-range deltas
        over all edges counts each butterfly exactly 4 times."""
        pdf = random_bipartite_pdf(5, 5, 40, seed=seed)
        g = StreamGraph.from_pdf(pdf)
        total = count_local(pdf, DELTA)
        acc = np.zeros(6, dtype=np.int64)
        for u, v, t in pdf.itertuples(index=False):
            acc += edge_delta(g, int(u), int(v), int(t), DELTA)
        assert (acc == 4 * total).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_range_keeps_delta(self, seed):
        """Given ``[lo, hi] = [t − 3δ, t + 3δ]``, a wedge of the edge longer
        than δ is left out, so the count equals the default range's and
        the brute-force count of the butterflies containing the edge."""
        pdf = random_bipartite_pdf(4, 4, 50, seed=seed, t_range=150)
        d = 12
        g, total = StreamGraph.from_pdf(pdf), brute_counts(pdf, d)
        for i, (u, v, t) in enumerate(pdf.itertuples(index=False)):
            u, v, t = int(u), int(v), int(t)
            wide = edge_delta(g, u, v, t, d, lo=t - 3 * d, hi=t + 3 * d)
            rest = brute_counts(pdf.drop(i), d)
            want = [total[k] - rest[k] for k in range(6)]
            assert wide.tolist() == edge_delta(g, u, v, t, d).tolist() == want


class TestBatches:
    def test_insert_batch_from_empty_equals_full_count(self):
        pdf = _stream(150)
        g = StreamGraph()
        rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
        inc = stbc_insert_batch(g, rows, DELTA)
        assert (inc == count_local(pdf, DELTA)).all()

    def test_plus_insert_batch_from_empty_equals_full_count(self):
        pdf = _stream(150, seed=1)
        g = StreamGraph.from_pdf(pdf)
        rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
        inc = stbc_plus_batch(g, rows, DELTA, "insert")
        assert (inc == count_local(pdf, DELTA)).all()

    def test_delete_batch_matches_recompute_difference(self):
        pdf = _stream(150, seed=2)
        rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
        cut = 40
        g = StreamGraph.from_pdf(pdf)
        before = count_local(pdf, DELTA)
        dec = stbc_delete_batch(g, rows[:cut], DELTA)
        after = count_local(pdf.iloc[cut:], DELTA)
        assert (before - dec == after).all()

    def test_plus_delete_batch_agrees_with_sequential(self):
        pdf = _stream(150, seed=3)
        rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
        cut = 40
        g1 = StreamGraph.from_pdf(pdf)
        dec_plus = stbc_plus_batch(g1, rows[:cut], DELTA, "delete")
        g2 = StreamGraph.from_pdf(pdf)
        dec_seq = stbc_delete_batch(g2, rows[:cut], DELTA)
        assert (dec_plus == dec_seq).all()

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            stbc_plus_batch(StreamGraph(), [(0, 0, 1)], DELTA, "upsert")


@pytest.mark.parametrize("algo", ["stbc", "stbc_plus"])
def test_sliding_window_matches_recompute(algo):
    pdf = _stream(240, seed=4)
    window, stride = 120, 30
    run = sliding_window_stbc if algo == "stbc" else sliding_window_stbc_plus
    steps = run(pdf, window=window, stride=stride, delta=DELTA)
    assert len(steps) == 1 + (240 - window) // stride
    for st in steps:
        want = count_local(pdf.iloc[st.start : st.end], DELTA)
        assert (st.counts == want).all(), (st.start, st.end)


def test_sliding_window_algorithms_agree():
    pdf = _stream(200, seed=5)
    a = sliding_window_stbc(pdf, window=100, stride=25, delta=DELTA)
    b = sliding_window_stbc_plus(pdf, window=100, stride=25, delta=DELTA)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.counts == y.counts).all()


def test_unsorted_stream_rejected():
    pdf = _stream(50, seed=6).iloc[::-1].reset_index(drop=True)
    with pytest.raises(ValueError):
        sliding_window_stbc(pdf, window=20, stride=5, delta=DELTA)


@pytest.mark.parametrize("window,stride", [(0, 1), (5, 0)])
@pytest.mark.parametrize("algo", ["stbc", "stbc_plus"])
def test_window_and_stride_must_be_positive(algo, window, stride):
    """Rejected up front: a zero window would delete edges it never
    inserted, and a zero stride would never advance the stream."""
    run = sliding_window_stbc if algo == "stbc" else sliding_window_stbc_plus
    with pytest.raises(ValueError, match="window and stride"):
        run(_stream(50, seed=6), window=window, stride=stride, delta=DELTA)


def test_stbc_plus_spark_parallel_agrees(spark):
    pdf = _stream(200, seed=7)
    rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
    g = StreamGraph.from_pdf(pdf)
    for cut in (60, 3):  # 3 edges leave some of the 4 tasks empty
        local = stbc_plus_batch(g, rows[:cut], DELTA, "delete")
        dist = stbc_plus_batch(g, rows[:cut], DELTA, "delete", spark=spark, parallelism=4)
        assert (local == dist).all(), cut


def test_sliding_window_spark_parallel_agrees(spark):
    pdf = _stream(160, seed=8)
    a = sliding_window_stbc_plus(pdf, window=80, stride=40, delta=DELTA)
    b = sliding_window_stbc_plus(
        pdf, window=80, stride=40, delta=DELTA, spark=spark, parallelism=4
    )
    for x, y in zip(a, b):
        assert (x.counts == y.counts).all()


def test_stbc_plus_spark_batch_is_one_job(spark):
    pdf = _stream(120, seed=9)
    rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
    g = StreamGraph.from_pdf(pdf)
    sc = spark.sparkContext
    sc.setJobGroup("stbc-plus-one-batch", "one STBC+ batch")
    try:
        stbc_plus_batch(g, rows[:40], DELTA, "delete", spark=spark, parallelism=2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert len(sc.statusTracker().getJobIdsForGroup("stbc-plus-one-batch")) == 1


def test_stbc_plus_spark_batches_release_broadcasts(spark):
    """Each Spark batch destroys its graph broadcast, which also removes the
    pickled copy of the window from the context's temp dir."""
    pdf = _stream(120, seed=9)
    rows = [tuple(map(int, r)) for r in pdf.itertuples(index=False)]
    g = StreamGraph.from_pdf(pdf)
    tmp = spark.sparkContext._temp_dir
    before = set(os.listdir(tmp))
    for cut in (20, 40, 60):
        stbc_plus_batch(g, rows[:cut], DELTA, "delete", spark=spark, parallelism=2)
    assert set(os.listdir(tmp)) <= before


def _zip_modules(archive, names):
    with zipfile.ZipFile(archive, "w") as z:
        for name in names:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")


def test_keep_zip_listings_rereads_only_a_changed_archive(tmp_path, monkeypatch):
    """Under the helper, ``importlib.invalidate_caches()`` reads an
    unchanged archive's directory no more, and still re-reads one that
    was rewritten on disk, or removed. The class is restored afterwards."""
    cls = zipimport.zipimporter
    monkeypatch.setattr(cls, "invalidate_caches", cls.invalidate_caches)
    reads = []
    read = zipimport._read_directory
    monkeypatch.setattr(zipimport, "_read_directory", lambda a: reads.append(a) or read(a))
    archive = tmp_path / "mods.zip"
    _zip_modules(archive, ["zl_first"])
    monkeypatch.syspath_prepend(str(archive))
    try:
        assert importlib.import_module("zl_first").NAME == "zl_first"
        keep_zip_listings()
        installed = cls.invalidate_caches
        keep_zip_listings()
        assert cls.invalidate_caches is installed
        assert (cls.invalidate_caches.__module__ == "repro.streaming.graph") == (
            sys.version_info < (3, 12)
        )
        importlib.invalidate_caches()  # the first call under the helper reads
        reads.clear()
        importlib.invalidate_caches()
        assert reads == []

        _zip_modules(archive, ["zl_first", "zl_second"])
        importlib.invalidate_caches()
        assert importlib.import_module("zl_second").NAME == "zl_second"
        assert str(archive) in reads

        if sys.version_info < (3, 12):  # 3.12 reads only on the next import
            archive.unlink()
            reads.clear()
            importlib.invalidate_caches()
            assert reads == [str(archive)]
    finally:
        for name in ("zl_first", "zl_second"):
            sys.modules.pop(name, None)
        sys.path_importer_cache.pop(str(archive), None)


def test_keep_zip_listings_leaves_python_312_alone(monkeypatch):
    cls = zipimport.zipimporter
    original = cls.invalidate_caches
    monkeypatch.setattr(cls, "invalidate_caches", original)
    with monkeypatch.context() as m:
        m.setattr(sys, "version_info", (3, 12, 0))
        keep_zip_listings()
    assert cls.invalidate_caches is original
