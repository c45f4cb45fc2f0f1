"""Combine kernels (TBC+/TBC++/TBE+ cores) vs the quadratic reference."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_times
from repro.core.schema import N_TYPES
from repro.core.wedge_set import (
    build_sets,
    count_group_plus,
    count_group_pp,
    enumerate_group,
    instance_row,
)
from tests.reference import count_group_quadratic, wedge_pair_type


def _wedge_strategy(delta: int):
    def make(m, lo, span, fwd):
        return (m, lo, lo + 1 + span, fwd)

    return st.builds(
        make,
        st.integers(1, 9, ),
        st.integers(0, 40),
        st.integers(0, delta - 1),
        st.booleans(),
    )


def _groups(delta: int, max_size: int = 24):
    return st.lists(_wedge_strategy(delta), min_size=0, max_size=max_size)


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


def test_build_sets_splits_directions_and_sorts():
    ws = [(1, 5, 7, True), (1, 2, 9, False), (1, 5, 6, False), (3, 0, 1, True)]
    sets = build_sets(ws)
    assert len(sets) == 2
    a, d = sets[0]  # middle 1
    assert a == [(1, 5, 7, True)]
    assert d == [(1, 5, 6, False), (1, 2, 9, False)]  # lo desc
    assert sets[1] == ([(3, 0, 1, True)], [])


def test_instance_row_reconstructs_edges():
    # U start s=4 (u=2), e=8 (u=4); middles 1 (v=0) and 3 (v=1)
    wi = (1, 10, 20, True)  # (u2,v0)@10, (u4,v0)@20
    wj = (3, 12, 15, False)  # backward: (u2,v1)@15, (u4,v1)@12
    bt = wedge_pair_type(10, 20, True, 12, 15, False, layer=0)
    row = instance_row(4, 8, 0, wi, wj, bt)
    assert row[:4] == (2, 4, 0, 1)
    assert row[4:8] == (10, 15, 20, 12)
    # the pair's wedge-set type is the type of the rebuilt edge times
    assert row[8] == bt == classify_times(10, 15, 20, 12)


def test_instance_row_L_perspective():
    # L start s=1 (v=0), e=3 (v=1); middles 2 (u=1), 6 (u=3)
    wi = (2, 10, 20, True)  # (u1,v0)@10, (u1,v1)@20
    wj = (6, 12, 15, True)  # (u3,v0)@12, (u3,v1)@15
    bt = wedge_pair_type(10, 20, True, 12, 15, True, layer=1)
    row = instance_row(1, 3, 1, wi, wj, bt)
    assert row[:4] == (1, 3, 0, 1)
    assert row[4:8] == (10, 20, 12, 15)
    assert row[8] == bt == classify_times(10, 20, 12, 15)
