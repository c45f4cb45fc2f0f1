"""Dataset analog configs: Table-3 ratios, determinism, butterfly presence."""
from __future__ import annotations

import pytest

from repro.core.optimized import count_local
from repro.core.schema import days
from repro.datasets import DATASETS, PAPER_TABLE4, DatasetConfig
from tests.reference import TEST_SCALE, dataset_stats

ALL_NAMES = list(DATASETS)


def test_eleven_datasets_match_paper_roster():
    assert ALL_NAMES == [
        "WQ", "WN", "SO", "CU", "BS", "TW", "AM", "ER", "EP", "LF", "WT"
    ]
    assert set(PAPER_TABLE4) == set(ALL_NAMES)


def test_paper_edge_counts_are_table3():
    assert DATASETS["WQ"].paper_edges == 776_458
    assert DATASETS["WT"].paper_edges == 44_788_448
    assert DATASETS["EP"].paper_upper == 120_492


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scaled_sizes_follow_scaling_law(name):
    cfg = DATASETS[name]
    scale = 0.01
    n_e, n_u, n_l = cfg.sizes(scale)
    assert n_e >= 400
    vscale = scale**DatasetConfig.VERTEX_EXP
    if cfg.paper_upper * vscale >= 6:
        assert abs(n_u - cfg.paper_upper * vscale) <= 1
    if cfg.paper_lower * vscale >= 6:
        assert abs(n_l - cfg.paper_lower * vscale) <= 1
    # edges scale linearly, vertices sublinearly -> density shrinks
    assert n_e / max(n_u, 1) <= cfg.paper_edges / cfg.paper_upper + 1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generated_stats(name):
    cfg = DATASETS[name]
    pdf = cfg.generate_pdf(TEST_SCALE)
    st = dataset_stats(pdf)
    n_e, n_u, n_l = cfg.sizes(TEST_SCALE)
    assert st["edges"] == n_e
    assert st["upper"] <= n_u and st["lower"] <= n_l
    assert st["span_days"] <= cfg.span_days + 1e-6
    assert pdf["t"].is_unique


@pytest.mark.parametrize("name", ALL_NAMES)
def test_generation_deterministic(name):
    cfg = DATASETS[name]
    assert cfg.generate_pdf(TEST_SCALE).equals(cfg.generate_pdf(TEST_SCALE))


@pytest.mark.parametrize("name", ["WN", "EP", "LF"])
def test_analogs_contain_temporal_butterflies(name):
    """At δ = 40 days the analogs must produce non-trivial counts —
    otherwise the Table-4 reproduction would be vacuous."""
    pdf = DATASETS[name].generate_pdf(TEST_SCALE)
    counts = count_local(pdf, days(40))
    assert counts.sum() > 0, name


def test_spark_generation(spark):
    sdf = DATASETS["WQ"].generate(spark, TEST_SCALE)
    assert sdf.count() == DATASETS["WQ"].sizes(TEST_SCALE)[0]
