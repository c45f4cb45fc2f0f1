"""Exact reference implementations, independent of the wedge machinery.

``brute_counts`` / ``brute_instances`` walk all vertex quadruples of a
small pandas edge frame. ``sql_instances`` is one SQL text (valid in
both DuckDB and Spark SQL) that enumerates temporal butterflies through
a 4-way self-join, and ``sql_counts`` counts its rows per type; the
DuckDB oracle (`repro.oracle.assert_equivalent`) runs the latter to
validate every Spark algorithm. Both are O(expensive) by
design — correctness oracles for tiny graphs, not algorithms.
"""
from __future__ import annotations

import itertools
from collections import defaultdict

import pandas as pd

from repro.core.classify import classify_sql, classify_times
from repro.core.schema import N_TYPES


def _pair_times(edges: pd.DataFrame) -> dict[tuple[int, int], list[int]]:
    """All timestamps per (u, v) vertex pair."""
    out: dict[tuple[int, int], list[int]] = defaultdict(list)
    for u, v, t in edges[["u", "v", "t"]].itertuples(index=False):
        out[(int(u), int(v))].append(int(t))
    return out


def brute_instances(edges: pd.DataFrame, delta: int) -> pd.DataFrame:
    """Enumerate every temporal butterfly of a small edge frame.

    Returns the canonical instance frame: one row per butterfly with
    ``u1 < u2``, ``v1 < v2``, ``tXY`` = time of edge ``(uX, vY)`` and its
    ``btype``.
    """
    times = _pair_times(edges)
    nbrs: dict[int, set[int]] = defaultdict(set)
    for u, v in times:
        nbrs[u].add(v)
    rows = []
    for u1, u2 in itertools.combinations(sorted(nbrs), 2):
        common = sorted(nbrs[u1] & nbrs[u2])
        for v1, v2 in itertools.combinations(common, 2):
            for t11 in times[(u1, v1)]:
                for t12 in times[(u1, v2)]:
                    for t21 in times[(u2, v1)]:
                        for t22 in times[(u2, v2)]:
                            ts = (t11, t12, t21, t22)
                            if len(set(ts)) != 4:
                                continue
                            if max(ts) - min(ts) > delta:
                                continue
                            rows.append(
                                (u1, u2, v1, v2, t11, t12, t21, t22,
                                 classify_times(t11, t12, t21, t22))
                            )
    return pd.DataFrame(
        rows, columns=["u1", "u2", "v1", "v2", "t11", "t12", "t21", "t22", "btype"]
    ).astype("int64")


def brute_counts(edges: pd.DataFrame, delta: int) -> dict[int, int]:
    """Per-type counts from ``brute_instances``; always six keys."""
    inst = brute_instances(edges, delta)
    out = {i: 0 for i in range(N_TYPES)}
    if len(inst):
        for btype, cnt in inst.groupby("btype").size().items():
            out[int(btype)] = int(cnt)
    return out


def sql_instances(delta: int, edges: str = "edges") -> str:
    """SQL text enumerating canonical butterfly instances over ``edges``.

    The 4-way self-join canonicalizes each butterfly as ``u1 < u2``,
    ``v1 < v2`` (so every instance is produced exactly once), applies the
    distinct-timestamps and δ-duration constraints, and types it with the
    shared ``classify_sql`` expression. Runs identically on DuckDB and
    Spark.
    """
    btype = classify_sql("e1.t", "e2.t", "e3.t", "e4.t")
    return f"""
SELECT e1.u AS u1, e3.u AS u2, e1.v AS v1, e2.v AS v2,
       e1.t AS t11, e2.t AS t12, e3.t AS t21, e4.t AS t22,
       {btype} AS btype
FROM {edges} e1
JOIN {edges} e2 ON e2.u = e1.u AND e2.v > e1.v
JOIN {edges} e3 ON e3.v = e1.v AND e3.u > e1.u
JOIN {edges} e4 ON e4.u = e3.u AND e4.v = e2.v
WHERE GREATEST(e1.t, e2.t, e3.t, e4.t) - LEAST(e1.t, e2.t, e3.t, e4.t) <= {delta}
  AND e1.t <> e2.t AND e1.t <> e3.t AND e1.t <> e4.t
  AND e2.t <> e3.t AND e2.t <> e4.t AND e3.t <> e4.t
"""


def sql_counts(delta: int, edges: str = "edges") -> str:
    """SQL text counting ``sql_instances`` per type over ``edges``,
    left-joined onto the 0..5 type domain so zero-count types still
    appear. Runs identically on DuckDB and Spark."""
    return f"""
WITH grouped AS (
  SELECT i.btype AS btype, COUNT(*) AS c
  FROM ({sql_instances(delta, edges)}) i
  GROUP BY i.btype
)
SELECT types.btype AS btype, CAST(COALESCE(grouped.c, 0) AS BIGINT) AS cnt
FROM (VALUES (0), (1), (2), (3), (4), (5)) AS types(btype)
LEFT JOIN grouped ON grouped.btype = types.btype
ORDER BY types.btype
"""
