"""STBC (Algorithm 7): count the temporal butterflies containing one edge.

The delta of a single update is the per-type count of butterflies that
contain the edge. Wedges are gathered as Algorithm 7 does — one set
through the edge's own middle vertex (the wedge whose first leg *is*
the edge) and one set through every other middle — and combined with
the §4 tree kernel, which is legitimate because giving all other-middle
wedges one pseudo middle id reproduces the paper's two-set
``H[w][v] × H[w][!v]`` cross exactly. The edge's own set is gathered
first, so only ends it reaches keep other-middle wedges, and only ends
holding both sets are combined.
"""
from __future__ import annotations

import numpy as np

from repro.core.schema import N_TYPES
from repro.core.wedge_set import count_group_pp
from repro.streaming.graph import StreamGraph

#: pseudo middle ids: the two wedge sets Algorithm 7 maintains per H[w]
OTHER_MIDDLE, EDGE_MIDDLE = 0, 1


def edge_delta(
    g: StreamGraph,
    u: int,
    v: int,
    t: int,
    delta: int,
    lo: int | None = None,
    hi: int | None = None,
) -> np.ndarray:
    """Per-type count of butterflies containing edge (u, v, t).

    ``[lo, hi]`` bounds the timestamps of the *other three* edges;
    defaults to the full Algorithm-7 range ``[t-δ, t+δ]``. STBC⁺ passes
    the Lemma-8 half-ranges ``(t, t+δ]`` / ``[t-δ, t)`` instead. A wider
    range counts as ``[t-δ, t+δ]`` does: the edge's own wedges are read
    from ``[lo, hi]`` clamped to ``[t-δ, t+δ]``, as the kernel needs
    ``hi ≤ lo + δ``. The edge itself must currently be present in ``g``.
    """
    if lo is None:
        lo = t - delta
    if hi is None:
        hi = t + delta
    gu, gv = 2 * u, 2 * v + 1
    H: dict[int, list[tuple]] = {}
    # wedges u -> v -> w whose first leg is the edge itself (Alg. 7
    # lines 10-15); the kernel needs each within δ of the edge
    for t2, gw in g.neighbors_in(gv, max(lo, t - delta), min(hi, t + delta)):
        if gw == gu or t2 == t:
            continue
        wl, wh = (t, t2) if t < t2 else (t2, t)
        H.setdefault(gw, []).append((EDGE_MIDDLE, wl, wh, t < t2))
    counts = np.zeros(N_TYPES, dtype=np.int64)
    if not H:
        return counts
    # wedges u -> x -> w through every other middle x (lines 2-9), kept
    # only for ends w the edge's own wedges reach
    crossed = set()
    for t1, gx in g.neighbors_in(gu, lo, hi):
        if gx == gv or t1 == t:
            continue
        lo2 = max(lo, max(t, t1) - delta)
        hi2 = min(hi, min(t, t1) + delta)
        # |t2 - t1| <= δ already: t2 lies within δ of both t and t1
        for t2, gw in g.neighbors_in(gx, lo2, hi2):
            if gw not in H or t2 == t or t2 == t1:
                continue
            wl, wh = (t1, t2) if t1 < t2 else (t2, t1)
            H[gw].append((OTHER_MIDDLE, wl, wh, t1 < t2))
            crossed.add(gw)
    for gw in crossed:
        counts += count_group_pp(H[gw], delta, 0)  # u starts from U
    return counts


def stbc_delete_batch(g: StreamGraph, batch, delta: int) -> np.ndarray:
    """Sequential STBC deletion of ``batch`` edges; returns the total
    count decrement. Each edge is counted with the full range against
    the *current* graph, then removed — the paper's one-at-a-time
    stream semantics."""
    dec = np.zeros(N_TYPES, dtype=np.int64)
    for u, v, t in batch:
        dec += edge_delta(g, int(u), int(v), int(t), delta)
        g.delete(int(u), int(v), int(t))
    return dec


def stbc_insert_batch(g: StreamGraph, batch, delta: int) -> np.ndarray:
    """Sequential STBC insertion; returns the total count increment."""
    inc = np.zeros(N_TYPES, dtype=np.int64)
    for u, v, t in batch:
        g.insert(int(u), int(v), int(t))
        inc += edge_delta(g, int(u), int(v), int(t), delta)
    return inc
