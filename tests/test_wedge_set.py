"""Combine kernels (TBC+/TBC++/TBE+ cores) vs the quadratic reference."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.brute import brute_instances
from repro.core.classify import classify_times
from repro.core.optimized import walk
from repro.core.schema import N_TYPES, days
from repro.core.wedge_set import count_group_plus, count_group_pp, enumerate_group
from repro.datasets import DATASETS
from repro.streaming.graph import StreamGraph
from tests.reference import TEST_SCALE, count_group_quadratic, wedge_pair_type
from tests.util import edges_pdf

KERNELS = (count_group_plus, count_group_pp)


def _wedge_strategy(delta: int, max_m: int = 9):
    def make(m, lo, span, fwd):
        return (m, lo, lo + 1 + span, fwd)

    return st.builds(
        make,
        st.integers(1, max_m),
        st.integers(0, 40),
        st.integers(0, delta - 1),
        st.booleans(),
    )


def _groups(delta: int, max_size: int = 24, max_m: int = 9):
    return st.lists(_wedge_strategy(delta, max_m), min_size=0, max_size=max_size)


def _enum_hist(wedges, delta, layer):
    """TBE⁺ as a counting kernel: per-type histogram of its instances."""
    s, e = (100, 102) if layer == 0 else (101, 103)
    rows = enumerate_group(wedges, delta, layer, s, e)
    return np.bincount([r[8] for r in rows], minlength=N_TYPES)


@given(_groups(delta=8), st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_plus_matches_quadratic(wedges, layer):
    wedges = [(2 * m + 1 - layer, lo, hi, f) for m, lo, hi, f in wedges]
    want = count_group_quadratic(wedges, 8, layer)
    got = count_group_plus(wedges, 8, layer)
    assert (got == want).all(), (wedges, got, want)


@given(_groups(delta=8), st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_pp_matches_quadratic(wedges, layer):
    wedges = [(2 * m + 1 - layer, lo, hi, f) for m, lo, hi, f in wedges]
    want = count_group_quadratic(wedges, 8, layer)
    got = count_group_pp(wedges, 8, layer)
    assert (got == want).all(), (wedges, got, want)


@given(_groups(delta=6, max_size=16), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_enumeration_counts_match_quadratic(wedges, layer):
    wedges = [(2 * m + 1 - layer, lo, hi, f) for m, lo, hi, f in wedges]
    got = _enum_hist(wedges, 6, layer)
    assert (got == count_group_quadratic(wedges, 6, layer)).all()


@given(_groups(delta=6, max_size=12), st.integers(0, 1))
@settings(max_examples=100, deadline=None)
def test_enumerated_instances_are_valid(wedges, layer):
    wedges = [(2 * m + 1 - layer, lo, hi, f) for m, lo, hi, f in wedges]
    s, e = (100, 102) if layer == 0 else (101, 103)
    for u1, u2, v1, v2, t11, t12, t21, t22, bt in enumerate_group(
        wedges, 6, layer, s, e
    ):
        assert u1 < u2 and v1 < v2
        ts = [t11, t12, t21, t22]
        assert len(set(ts)) == 4
        assert max(ts) - min(ts) <= 6
        assert classify_times(t11, t12, t21, t22) == bt


@given(_groups(delta=8, max_size=30, max_m=3), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_kernels_match_quadratic_few_middles(wedges, layer):
    """Middles from 1..3: each middle holds many wedges, so the one-set
    sweep's same-middle pairs must cancel exactly."""
    wedges = [(2 * m + 1 - layer, lo, hi, f) for m, lo, hi, f in wedges]
    want = count_group_quadratic(wedges, 8, layer)
    for kernel in (*KERNELS, _enum_hist):
        got = kernel(wedges, 8, layer)
        assert (got == want).all(), (kernel, wedges, got, want)


def _clustered_group(n_middles: int, seed: int) -> list[tuple]:
    """20–40 wedges per middle, each middle's in its own time block that
    only the next middle's block reaches within δ = 100."""
    rng = np.random.default_rng(seed)
    ws = []
    for i in range(n_middles):
        for _ in range(rng.integers(20, 41)):
            lo = 120 * i + int(rng.integers(0, 41))
            hi = lo + int(rng.integers(1, 21))
            ws.append((2 * i + 1, lo, hi, bool(rng.random() < 0.5)))
    return ws


def _same_middle_pairs(wedges, delta):
    return sum(
        wi[0] == wj[0] and max(wi[2], wj[2]) - min(wi[1], wj[1]) <= delta
        for i, wi in enumerate(wedges)
        for wj in wedges[i + 1:]
    )


@pytest.mark.parametrize("n_middles", [2, 3, 4, 5])
@pytest.mark.parametrize("layer", [0, 1])
def test_kernels_match_quadratic_on_clustered_middles(n_middles, layer):
    """Two middles take the two-sided sweep, more the one-set sweep less
    each middle's own; same-middle pairs far outnumber the butterflies."""
    ws = _clustered_group(n_middles, seed=n_middles)
    want = count_group_quadratic(ws, 100, layer)
    assert 0 < 5 * want.sum() < _same_middle_pairs(ws, 100)
    for kernel in (*KERNELS, _enum_hist):
        assert (kernel(ws, 100, layer) == want).all(), kernel


def test_kernels_agree_on_walk_groups():
    """Every (s, e) group of an LF analog's walk: TBC⁺, TBC⁺⁺ and the TBE⁺
    histogram sum to the same counts, over groups of both sweeps."""
    g = StreamGraph.from_pdf(DATASETS["LF"].generate_pdf(TEST_SCALE))
    d = days(40)
    sums = np.zeros((3, N_TYPES), dtype=np.int64)
    middles = set()
    for s, _e, ws in walk(g, ((s, 0, 1) for s in g.adj), d):
        middles.add(min(len({w[0] for w in ws}), 3))
        sums[0] += count_group_plus(ws, d, s % 2)
        sums[1] += count_group_pp(ws, d, s % 2)
        sums[2] += _enum_hist(ws, d, s % 2)
    assert middles == {1, 2, 3} and sums[0].sum() > 0
    assert (sums == sums[0]).all(), sums


def test_empty_and_single_set_groups():
    for kernel in (count_group_plus, count_group_pp, _enum_hist, count_group_quadratic):
        assert (kernel([], 5, 0) == 0).all()
        # single middle vertex -> no butterflies
        ws = [(1, 0, 3, True), (1, 1, 4, False), (1, 2, 5, True)]
        assert (kernel(ws, 5, 0) == 0).all()


def test_two_wedges_single_butterfly():
    # forward (0,1)-(2,3): non-overlap, same direction, U start -> T0
    ws = [(1, 0, 1, True), (3, 2, 3, True)]
    for kernel in (count_group_plus, count_group_pp, _enum_hist, count_group_quadratic):
        got = kernel(ws, 5, 0)
        assert got[0] == 1 and got.sum() == 1
        got_l = kernel(ws, 5, 1)
        assert got_l[1] == 1 and got_l.sum() == 1


def test_delta_excludes_far_pairs():
    ws = [(1, 0, 1, True), (3, 10, 11, True)]
    for kernel in (count_group_plus, count_group_pp, _enum_hist):
        assert kernel(ws, 5, 0).sum() == 0
        assert kernel(ws, 11, 0).sum() == 1


def test_equal_lo_pairs_are_excluded():
    ws = [(1, 0, 2, True), (3, 0, 3, True)]
    for kernel in (count_group_plus, count_group_pp, _enum_hist, count_group_quadratic):
        assert kernel(ws, 9, 0).sum() == 0


def test_equal_hi_pairs_are_excluded():
    ws = [(1, 0, 4, True), (3, 2, 4, True)]
    for kernel in (count_group_plus, count_group_pp, _enum_hist, count_group_quadratic):
        assert kernel(ws, 9, 0).sum() == 0


def test_boundary_hi_equals_other_lo_excluded():
    ws = [(1, 0, 2, True), (3, 2, 4, True)]
    for kernel in (count_group_plus, count_group_pp, _enum_hist, count_group_quadratic):
        assert kernel(ws, 9, 0).sum() == 0


def _flipped(wedges: list[tuple]) -> list[tuple]:
    """The same wedges read from the other end: every ``fwd`` flipped."""
    return [(m, lo, hi, not fwd) for m, lo, hi, fwd in wedges]


@pytest.mark.parametrize("swap", [False, True], ids=["s<e", "s>e"])
def test_enumerate_group_reconstructs_edges(swap):
    # U ends 4 (u=2) and 8 (u=4); middles 1 (v=0) and 3 (v=1)
    wi = (1, 10, 20, True)  # from u2: (u2,v0)@10, (u4,v0)@20
    wj = (3, 12, 15, False)  # backward: (u2,v1)@15, (u4,v1)@12
    bt = wedge_pair_type(10, 20, True, 12, 15, False, layer=0)
    ws, s, e = ([wi, wj], 4, 8) if not swap else (_flipped([wi, wj]), 8, 4)
    (row,) = enumerate_group(ws, 10, 0, s, e)
    assert row[:4] == (2, 4, 0, 1)
    assert row[4:8] == (10, 15, 20, 12)
    # the pair's wedge-set type is the type of the rebuilt edge times
    assert row[8] == bt == classify_times(10, 15, 20, 12)


@pytest.mark.parametrize("swap", [False, True], ids=["s<e", "s>e"])
def test_enumerate_group_L_perspective(swap):
    # L ends 1 (v=0) and 3 (v=1); middles 2 (u=1) and 6 (u=3)
    wi = (2, 10, 20, True)  # from v0: (u1,v0)@10, (u1,v1)@20
    wj = (6, 12, 15, True)  # (u3,v0)@12, (u3,v1)@15
    bt = wedge_pair_type(10, 20, True, 12, 15, True, layer=1)
    ws, s, e = ([wi, wj], 1, 3) if not swap else (_flipped([wi, wj]), 3, 1)
    (row,) = enumerate_group(ws, 10, 1, s, e)
    assert row[:4] == (1, 3, 0, 1)
    assert row[4:8] == (10, 20, 12, 15)
    assert row[8] == bt == classify_times(10, 20, 12, 15)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 12)), max_size=40
    ),
    transpose=st.booleans(),
    delta=st.integers(0, 12),
)
def test_walk_enumeration_matches_brute_instances(rows, transpose, delta):
    """No Spark: times from 13 values, so ties and repeated rows abound.
    Three vertices on one side meet six on the other, so the start is
    mostly of the smaller side: L as drawn, U when transposed. The rows
    of ``walk`` over every start through ``enumerate_group`` are
    ``brute_instances`` as a multiset."""
    if transpose:
        rows = [(v, u, t) for u, v, t in rows]
    pdf = edges_pdf(rows)
    g = StreamGraph.from_pdf(pdf)
    got = [
        row
        for s, e, ws in walk(g, ((s, 0, 1) for s in g.adj), delta)
        for row in enumerate_group(ws, delta, s % 2, s, e)
    ]
    want = list(brute_instances(pdf, delta).itertuples(index=False, name=None))
    assert sorted(got) == sorted(want)
