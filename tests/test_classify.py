"""The 6-type algebra: all formulations must agree on all orderings."""
from __future__ import annotations

import itertools

import duckdb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_sql, classify_times
from tests.reference import wedge_pair_type

ALL_PERMS = list(itertools.permutations([10, 20, 30, 40]))


def test_exhaustive_type_balance():
    """24 orderings quotient into 6 types, 4 orderings each (free action)."""
    counts = {}
    for t11, t12, t21, t22 in ALL_PERMS:
        bt = classify_times(t11, t12, t21, t22)
        counts[bt] = counts.get(bt, 0) + 1
    assert counts == {i: 4 for i in range(6)}


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_layer_swap_invariance(perm):
    """Swapping u1<->u2 or v1<->v2 never changes the type."""
    t11, t12, t21, t22 = perm
    base = classify_times(t11, t12, t21, t22)
    assert classify_times(t21, t22, t11, t12) == base  # u-swap
    assert classify_times(t12, t11, t22, t21) == base  # v-swap
    assert classify_times(t22, t21, t12, t11) == base  # both


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_known_anchor_patterns(perm):
    """Spot-check the DESIGN.md table on explicit anchored orderings."""
    t11, t12, t21, t22 = perm
    order = sorted(perm)
    if (t11, t21, t12, t22) == tuple(order):  # shareL then shareU: T0
        assert classify_times(t11, t12, t21, t22) == 0
    if (t11, t12, t21, t22) == tuple(order):  # shareU then shareL: T1
        assert classify_times(t11, t12, t21, t22) == 1
    if (t11, t12, t22, t21) == tuple(order):  # shareU then opp: T2
        assert classify_times(t11, t12, t21, t22) == 2
    if (t11, t21, t22, t12) == tuple(order):  # shareL then opp: T3
        assert classify_times(t11, t12, t21, t22) == 3
    if (t11, t22, t21, t12) == tuple(order):  # opp then shareL: T4
        assert classify_times(t11, t12, t21, t22) == 4
    if (t11, t22, t12, t21) == tuple(order):  # opp then shareU: T5
        assert classify_times(t11, t12, t21, t22) == 5


def test_duplicate_timestamps_rejected():
    with pytest.raises(ValueError):
        classify_times(1, 1, 2, 3)


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_sql_classifier_matches_python_duckdb(perm):
    t11, t12, t21, t22 = perm
    expr = classify_sql(str(t11), str(t12), str(t21), str(t22))
    got = duckdb.sql(f"SELECT {expr} AS bt").fetchone()[0]
    assert got == classify_times(t11, t12, t21, t22)


def test_sql_classifier_matches_python_spark(spark):
    """The same text in Spark SQL, over all 24 orderings in one query."""
    rows = ", ".join(f"({a}, {b}, {c}, {d})" for a, b, c, d in ALL_PERMS)
    expr = classify_sql("t11", "t12", "t21", "t22")
    got = spark.sql(
        f"SELECT t11, t12, t21, t22, {expr} AS bt "
        f"FROM VALUES {rows} AS perms(t11, t12, t21, t22)"
    ).collect()
    assert sorted(tuple(r)[:4] for r in got) == sorted(ALL_PERMS)
    for t11, t12, t21, t22, bt in got:
        assert bt == classify_times(t11, t12, t21, t22)


def _wedge_from_raw(ts: int, ta: int) -> tuple[int, int, bool]:
    return (ts, ta, True) if ts < ta else (ta, ts, False)


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_wedge_pair_formulation_U_perspective(perm):
    """Wedges from the U layer: middle v1 raw (t11,t21), v2 raw (t12,t22)."""
    t11, t12, t21, t22 = perm
    wi = _wedge_from_raw(t11, t21)
    wj = _wedge_from_raw(t12, t22)
    assert wedge_pair_type(*wi, *wj, layer=0) == classify_times(t11, t12, t21, t22)


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_wedge_pair_formulation_L_perspective(perm):
    """Wedges from the L layer: middle u1 raw (t11,t12), u2 raw (t21,t22)."""
    t11, t12, t21, t22 = perm
    wi = _wedge_from_raw(t11, t12)
    wj = _wedge_from_raw(t21, t22)
    assert wedge_pair_type(*wi, *wj, layer=1) == classify_times(t11, t12, t21, t22)


@pytest.mark.parametrize("perm", ALL_PERMS)
def test_wedge_pair_symmetric_in_argument_order(perm):
    t11, t12, t21, t22 = perm
    wi = _wedge_from_raw(t11, t21)
    wj = _wedge_from_raw(t12, t22)
    assert wedge_pair_type(*wi, *wj, layer=0) == wedge_pair_type(*wj, *wi, layer=0)


def test_wedge_pair_rejects_shared_timestamps():
    assert wedge_pair_type(1, 5, True, 1, 7, True, layer=0) is None  # lo collision
    assert wedge_pair_type(1, 5, True, 5, 7, True, layer=0) is None  # hi==lo
    assert wedge_pair_type(1, 5, True, 2, 5, False, layer=0) is None  # hi collision


@given(
    st.lists(st.integers(0, 10_000), min_size=4, max_size=4, unique=True),
    st.integers(0, 1),
)
@settings(max_examples=200, deadline=None)
def test_wedge_pair_xor_conversion(ts, layer):
    """Changing the start layer applies the xor-with-1 conversion rule."""
    t11, t12, t21, t22 = ts
    wu = wedge_pair_type(
        *_wedge_from_raw(t11, t21), *_wedge_from_raw(t12, t22), layer=0
    )
    wl = wedge_pair_type(
        *_wedge_from_raw(t11, t12), *_wedge_from_raw(t21, t22), layer=1
    )
    assert wu == wl == classify_times(t11, t12, t21, t22)
    # and flipping the layer bit on either decomposition flips the pair
    assert (
        wedge_pair_type(
            *_wedge_from_raw(t11, t21), *_wedge_from_raw(t12, t22), layer=1
        )
        == wu ^ 1
    )
