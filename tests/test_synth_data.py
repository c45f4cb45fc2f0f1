"""Temporal bipartite generator properties."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.synth_data import temporal_bipartite_pdf


def _gen(**kw):
    base = dict(
        n_upper=50, n_lower=80, n_edges=2000, span_days=100.0, seed=7
    )
    base.update(kw)
    return temporal_bipartite_pdf(**base)


def test_shape_and_dtypes():
    pdf = _gen()
    assert list(pdf.columns) == ["u", "v", "t"]
    assert len(pdf) == 2000
    assert (pdf.dtypes == "int64").all()


def test_ids_within_layers():
    pdf = _gen()
    assert pdf["u"].between(0, 49).all()
    assert pdf["v"].between(0, 79).all()


def test_timestamps_distinct_and_sorted():
    pdf = _gen()
    assert pdf["t"].is_unique
    assert pdf["t"].is_monotonic_increasing


def test_deterministic_in_seed():
    assert _gen().equals(_gen())
    assert not _gen(seed=8).equals(_gen(seed=7))


def test_span_respected():
    pdf = _gen(span_days=10.0)
    assert pdf["t"].max() - pdf["t"].min() <= 10 * 86_400_000


def test_degree_skew_increases_with_alpha():
    flat = _gen(alpha_u=0.1, follow_frac=0.0)
    skew = _gen(alpha_u=2.0, follow_frac=0.0)
    assert skew["u"].value_counts().iloc[0] > flat["u"].value_counts().iloc[0]


def test_follower_edges_create_temporal_locality():
    """Followers repeat an L vertex shortly after a base edge, so short-δ
    wedge counts must grow with follow_frac."""

    def close_pairs(pdf: pd.DataFrame, delta_ms: int) -> int:
        n = 0
        for _, grp in pdf.groupby("v"):
            ts = grp["t"].to_numpy()
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    if abs(int(ts[i]) - int(ts[j])) <= delta_ms:
                        n += 1
        return n

    delta = 2 * 86_400_000
    low = close_pairs(_gen(follow_frac=0.0, gap_days=0.5, n_edges=800), delta)
    high = close_pairs(_gen(follow_frac=0.6, gap_days=0.5, n_edges=800), delta)
    assert high > low

