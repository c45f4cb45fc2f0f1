"""Wedge enumeration vs an independent pandas reference."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.core.baseline import tbc
from repro.core.brute import brute_counts
from repro.core.optimized import tbc_plus, tbc_pp
from repro.core.schema import counts_to_dict
from repro.core.wedges import wedges, wedges_pruned
from tests.util import edges_pdf, random_bipartite_pdf


def _ref_wedges(pdf: pd.DataFrame) -> set[tuple]:
    """All priority-filtered wedges, computed naively in pandas."""
    deg: dict[int, int] = {}
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, t in pdf.itertuples(index=False):
        gu, gv = 2 * u, 2 * v + 1
        for g in (gu, gv):
            deg[g] = deg.get(g, 0) + 1
    for u, v, t in pdf.itertuples(index=False):
        gu, gv = 2 * u, 2 * v + 1
        adj.setdefault(gu, []).append((gv, t))
        adj.setdefault(gv, []).append((gu, t))
    pr = lambda g: (deg[g], g)
    out = set()
    for s in adj:
        for m, t1 in adj[s]:
            if pr(s) <= pr(m):
                continue
            for e, t2 in adj[m]:
                if pr(s) <= pr(e):
                    continue
                out.add((s, m, e, t1, t2))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_wedges_match_reference(spark, seed):
    pdf = random_bipartite_pdf(5, 5, 40, seed=seed)
    got = {
        (r["s"], r["m"], r["e"], r["t1"], r["t2"])
        for r in wedges(spark.createDataFrame(pdf)).collect()
    }
    assert got == _ref_wedges(pdf)


TIE_GRAPHS = {
    # K3,3 with one edge per pair: every vertex has degree 3, so the gid
    # alone decides each priority comparison
    "equal_degrees": edges_pdf(
        [(u, v, 3 * u + v + 1) for u in range(3) for v in range(3)]
    ),
    # repeated (u, v) pairs: u0 has 5 temporal edges but 2 neighbours, u1
    # and u2 have 3 of each, so u0 outranks them only by edge degree
    "multi_edges": edges_pdf(
        [(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 4), (0, 1, 5), (1, 0, 6),
         (1, 1, 7), (1, 2, 8), (2, 1, 9), (2, 2, 10), (2, 0, 11)]
    ),
}


@pytest.mark.parametrize("name", TIE_GRAPHS)
def test_degree_then_gid_priority(spark, name):
    """Definition 4 ranks by temporal-edge degree, ties broken by gid;
    every counter built on the wedges still counts each butterfly once."""
    pdf = TIE_GRAPHS[name]
    sdf = spark.createDataFrame(pdf)
    got = {tuple(r[:5]) for r in wedges(sdf).collect()}
    assert got == _ref_wedges(pdf)
    delta = 6
    want = brute_counts(pdf, delta)
    assert 0 < sum(want.values()) < sum(brute_counts(pdf, 100).values())
    for algo in (tbc_pp, tbc_plus, tbc):
        assert counts_to_dict(algo(spark, sdf, delta)) == want, algo.__name__


def test_wedge_layers(spark):
    pdf = random_bipartite_pdf(5, 5, 40, seed=7)
    for r in wedges(spark.createDataFrame(pdf)).collect():
        assert r["layer"] == r["s"] % 2
        assert r["m"] % 2 == 1 - r["layer"]
        assert r["e"] % 2 == r["layer"]
        assert r["s"] != r["e"]


@pytest.mark.parametrize("delta_frac", [0.05, 0.3])
def test_pruned_wedges_satisfy_lemma1(spark, delta_frac):
    pdf = random_bipartite_pdf(5, 5, 60, seed=3)
    delta = max(1, int((pdf["t"].max() - pdf["t"].min()) * delta_frac))
    rows = wedges_pruned(spark.createDataFrame(pdf), delta).collect()
    assert rows, "pruned wedge stream should not be empty at this scale"
    for r in rows:
        assert r["lo"] < r["hi"]
        assert r["hi"] - r["lo"] <= delta


def test_pruned_is_filter_of_full(spark):
    pdf = random_bipartite_pdf(5, 5, 60, seed=4)
    delta = int((pdf["t"].max() - pdf["t"].min()) // 3)
    sdf = spark.createDataFrame(pdf)
    full = {
        (r["s"], r["m"], r["e"], min(r["t1"], r["t2"]), max(r["t1"], r["t2"]))
        for r in wedges(sdf).collect()
        if r["t1"] != r["t2"] and abs(r["t1"] - r["t2"]) <= delta
    }
    pruned = {
        (r["s"], r["m"], r["e"], r["lo"], r["hi"])
        for r in wedges_pruned(sdf, delta).collect()
    }
    assert pruned == full


def test_fwd_flag_encodes_direction(spark):
    pdf = random_bipartite_pdf(5, 5, 60, seed=5)
    delta = int(pdf["t"].max())
    sdf = spark.createDataFrame(pdf)
    raw = {(r["s"], r["m"], r["e"], r["t1"], r["t2"]) for r in wedges(sdf).collect()}
    for r in wedges_pruned(sdf, delta).collect():
        if r["fwd"]:
            assert (r["s"], r["m"], r["e"], r["lo"], r["hi"]) in raw
        else:
            assert (r["s"], r["m"], r["e"], r["hi"], r["lo"]) in raw
