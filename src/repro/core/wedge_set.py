"""Wedge-set combine kernels (§4 of the paper) — pure Python.

Each kernel consumes the wedges of one (start-vertex, end-vertex) group
— a list of ``(m, lo, hi, fwd)`` tuples with ``lo < hi ≤ lo + δ``
(Lemma-1-pruned, forward-normalized) — and produces the six per-type
butterfly counts (or the instances) contributed by that group.

The optimized kernels visit each wedge pair of a group once, in one
SetCross sweep (Alg. 3) instead of Alg. 3's merge tree. A two-middle
group gets one two-sided sweep. A larger one gets one one-set sweep
over all its wedges, whose same-middle pairs the counters subtract (one
sweep per middle) and TBE⁺ skips: all pairs less same-middle pairs, as
BFC-VP (Wang et al., PVLDB 2019) sums static wedge pairs per (start,
end). A sweep queries already-processed wedges in one of two stores:

* ``HP``    — Alg. 4's hashmap ``t_s → wedges in ascending t_a``. A
  binary search splits each bucket into coverage classes;
  ``count_group_plus`` (TBC⁺) counts those ranges and
  ``enumerate_group`` (TBE⁺, Alg. 5's range traversal) emits them.
* ``Trees`` — Alg. 6's twin order-statistics trees TA (keyed by t_a)
  and TS (keyed by t_s) as two ``SortedList``s; ``count_group_pp``
  (TBC⁺⁺) reads each class off three O(log n) rank queries.

A wedge pair's type is its class (§4.1): coverage (0 non-overlap,
1 intersect, 2 cover), + 3 if the wedges run in different directions,
xor the start layer. The counters sum class sizes into types; TBE⁺
types each instance by the class of the range it was emitted from.
TBE⁺ fixes the group's orientation once: it keys each wedge by (middle
id, time at a, time at b), ``a < b`` the group's layer-local ends, and
lays a pair's two keys, ordered by middle id, into its layer's row.

The tests check every kernel against a quadratic reference that
classifies each cross-middle pair on its own (``tests/reference.py``).

Wedge priority (Definition 6): ``P_W(∠i) < P_W(∠j)`` iff
``∠i.t_s > ∠j.t_s``, ties broken by smaller ``t_a``; kernels process
wedges in priority-increasing order, i.e. ``t_s`` descending / ``t_a``
ascending — so each wedge is queried against the already-processed
wedges, whose ``t_s`` is strictly larger.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import itemgetter
from typing import Callable

import numpy as np
from sortedcontainers import SortedList

from repro.core.schema import N_TYPES

#: wedge tuple layout inside a group; TBE⁺ appends its row key
M, LO, HI, FWD, KEY = range(5)

#: sort key realizing priority-increasing processing order
_PRIO_ORDER = lambda w: (-w[LO], w[HI])
_HI = itemgetter(HI)

#: partner tables: a wedge of a sweep's list b queries the stores of the
#: lists ``partner[b]`` = (same direction, different direction). Two sets'
#: lists (A_i, D_i, A_j, D_j) query across; one set's (A, D) query itself.
_TWO_SETS = ((2, 3), (3, 2), (0, 1), (1, 0))
_ONE_SET = ((0, 1), (1, 0))


# --------------------------------------------------------------------------
# the two stores
# --------------------------------------------------------------------------
#
# A query comes from a wedge ``w`` of the batch-minimum ``t_s``; every
# stored wedge has a strictly larger ``t_s``, so the coverage class of a
# stored wedge against ``w.hi`` is
#
#     t_s > w.hi         -> 0 non-overlap
#     t_s < w.hi < t_a   -> 1 intersect
#     t_a < w.hi         -> 2 cover
#
# Equal timestamps never form a butterfly and fall in no class.


class HP(dict):
    """Alg. 4's hashmap: ``t_s`` → the wedges with that ``t_s``, in
    ascending ``t_a``."""

    def insert(self, w: tuple) -> None:
        # a t_s arrives in one batch, already in ascending t_a
        self.setdefault(w[LO], []).append(w)

    def delete_gt(self, bound: int) -> None:
        """Drop every wedge with t_a > bound; buckets pop from the back."""
        for ts, ws in list(self.items()):
            while ws and ws[-1][HI] > bound:
                ws.pop()
            if not ws:
                del self[ts]

    def ranges(self, hi: int):
        """``(class, bucket, start, stop)``: ``bucket[start:stop]`` is in
        that coverage class against a wedge whose ``t_a`` is ``hi``."""
        for ts, ws in self.items():
            if ts > hi:
                yield 0, ws, 0, len(ws)
            elif ts < hi:
                yield 1, ws, bisect_right(ws, hi, key=_HI), len(ws)
                yield 2, ws, 0, bisect_left(ws, hi, key=_HI)

    def sizes(self, hi: int) -> tuple[int, int, int]:
        """The lengths of ``ranges(hi)``, summed per class (Alg. 4 Query).

        Summed inline, not over ``ranges``: a generator step per bucket
        made TBC⁺ ~25 % slower on the Figure-8 extreme group."""
        non = inter = cover = 0
        for ts, ws in self.items():
            if ts > hi:
                non += len(ws)
            elif ts < hi:
                inter += len(ws) - bisect_right(ws, hi, key=_HI)
                cover += bisect_left(ws, hi, key=_HI)
        return non, inter, cover


class Trees:
    """Alg. 6's twin trees: TA holds ``(t_a, t_s)``, TS holds ``t_s``."""

    __slots__ = ("ta", "ts")

    def __init__(self):
        self.ta = SortedList()
        self.ts = SortedList()

    def insert(self, w: tuple) -> None:
        self.ta.add((w[HI], w[LO]))
        self.ts.add(w[LO])

    def delete_gt(self, bound: int) -> None:
        """Erase every wedge with t_a > bound from both trees."""
        while self.ta and self.ta[-1][0] > bound:
            self.ts.remove(self.ta.pop()[1])

    def sizes(self, hi: int) -> tuple[int, int, int]:
        """Alg. 6 Query(): the three class sizes against ``hi``."""
        n = len(self.ts)
        ts_gt = n - self.ts.bisect_right(hi)
        ts_ge = n - self.ts.bisect_left(hi)
        ta_gt = n - self.ta.bisect_right((hi, math.inf))
        # t_a > hi, less those with t_s >= hi (whose t_a > hi as well)
        return ts_gt, ta_gt - ts_ge, self.ta.bisect_left((hi,))


# --------------------------------------------------------------------------
# one SetCross sweep per group (Algorithm 3)
# --------------------------------------------------------------------------


def _sweep(tagged, partner, delta: int, store: Callable, visit: Callable) -> None:
    """SetCross (Alg. 3 lines 8–29) over ``(list, wedge)`` pairs in
    priority order: by ``t_s`` descending, each wedge of the current
    ``t_s`` batch visits the stores ``partner`` names for its list, then
    the batch enters its own list's store."""
    stores = [store() for _ in partner]
    batch: list = []
    for b, w in tagged:
        if not batch or w[LO] != batch[0][1][LO]:
            for x in batch:
                stores[x[0]].insert(x[1])
            batch.clear()
            for st in stores:
                st.delete_gt(w[LO] + delta)
        same, diff = partner[b]
        visit(w, stores[same], stores[diff])
        batch.append((b, w))


def _pairs(wedges: list, delta: int, store: Callable, visit: Callable) -> list[list]:
    """Visit each wedge pair of the group once. Two middles: one
    two-sided sweep, which visits cross-middle pairs only. Three or
    more: one one-set sweep over the whole group; the one-set lists of
    the middles whose own pairs it visited too are returned."""
    tagged = [(not w[FWD], w) for w in sorted(wedges, key=_PRIO_ORDER)]
    by_m: dict[int, list] = defaultdict(list)
    for x in tagged:
        by_m[x[1][M]].append(x)
    if len(by_m) == 2:
        m0 = tagged[0][1][M]
        tagged = [(2 * (w[M] != m0) + b, w) for b, w in tagged]
        _sweep(tagged, _TWO_SETS, delta, store, visit)
    elif len(by_m) > 2:
        _sweep(tagged, _ONE_SET, delta, store, visit)
        return [x for x in by_m.values() if len(x) > 1]
    return []


def _tally(c: list[int]) -> Callable:
    def visit(w, same, diff):
        for k, n in enumerate(same.sizes(w[HI]) + diff.sizes(w[HI])):
            c[k] += n

    return visit


def _count(wedges, delta: int, layer: int, store: Callable) -> np.ndarray:
    """Per-type counts from the class sizes of ``store``: the group's
    pairs less each middle's own, by class before the layer xor."""
    c, own = [0] * N_TYPES, [0] * N_TYPES
    for ws in _pairs(wedges, delta, store, _tally(c)):
        _sweep(ws, _ONE_SET, delta, store, _tally(own))
    return (np.array(c, dtype=np.int64) - own)[[i ^ layer for i in range(N_TYPES)]]


def count_group_plus(wedges: list[tuple], delta: int, layer: int) -> np.ndarray:
    """TBC⁺ (Alg. 4): class sizes from the HP bisect ranges."""
    return _count(wedges, delta, layer, HP)


def count_group_pp(wedges: list[tuple], delta: int, layer: int) -> np.ndarray:
    """TBC⁺⁺ (Alg. 6): class sizes from the twin trees."""
    return _count(wedges, delta, layer, Trees)


# --------------------------------------------------------------------------
# TBE+ : enumeration via range traversal (Algorithm 5)
# --------------------------------------------------------------------------


def enumerate_group(
    wedges: list[tuple], delta: int, layer: int, s: int, e: int
) -> list[tuple]:
    """All canonical instances of one (s, e) group (TBE⁺ kernel), each
    typed by its SetCross class as ``_count`` types its counts; a
    partner of the wedge's own middle is skipped. Each row is the pair's
    two wedge keys laid out by the layer's template."""
    a, b = sorted((s // 2, e // 2))
    # lo is the time at a when the wedge runs forward from a: fwd xor (s > e)
    flip = s > e
    key = lambda m, lo, hi, fwd: (m // 2, lo, hi) if fwd != flip else (m // 2, hi, lo)
    keyed = [w + (key(*w),) for w in wedges]
    if layer == 0:  # ends in U: (a, b, x, y, t(a,x), t(a,y), t(b,x), t(b,y))
        row = lambda x, y, t: (a, b, x[0], y[0], x[1], y[1], x[2], y[2], t)
    else:  # ends in L: (x, y, a, b, t(x,a), t(x,b), t(y,a), t(y,b))
        row = lambda x, y, t: (x[0], y[0], a, b, x[1], x[2], y[1], y[2], t)
    out: list[tuple] = []

    def visit(w, same, diff):
        kw = w[KEY]
        m = kw[0]
        for d, hp in enumerate((same, diff)):
            for k, ws, i, j in hp.ranges(w[HI]):
                t = (k + 3 * d) ^ layer
                for o in ws[i:j]:
                    ko = o[KEY]
                    if ko[0] != m:
                        out.append(row(kw, ko, t) if m < ko[0] else row(ko, kw, t))

    _pairs(keyed, delta, HP, visit)
    return out
