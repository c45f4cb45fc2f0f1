"""Smoke tests for the spark-submit job entrypoints (run() functions)."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"
sys.path.insert(0, str(JOBS))

import run_counting  # noqa: E402
import run_enumeration  # noqa: E402
import run_streaming  # noqa: E402
import table3_datasets  # noqa: E402
import table4_distribution  # noqa: E402

from repro.datasets import TEST_SCALE  # noqa: E402


def test_table3_job(spark):
    out = table3_datasets.run(spark, scale=TEST_SCALE)
    assert len(out) == 11
    assert (out["repro_E"] >= 400).all()
    assert {"paper_E", "repro_E", "repro_span_days"} <= set(out.columns)


def test_table4_job(spark):
    out = table4_distribution.run(
        spark, delta_days=40.0, scale=TEST_SCALE, names=["WN", "EP"]
    )
    assert list(out["dataset"]) == ["WN", "EP"]
    for _, row in out.iterrows():
        if row["total"]:
            pcts = [row[f"T{i}_repro_pct"] for i in range(6)]
            assert abs(sum(pcts) - 100.0) < 1.0


def test_counting_job_all_algos_agree(spark):
    results = {}
    for algo in ("tbc", "tbc-sql", "tbc+", "tbc++"):
        out = run_counting.run(spark, "WN", algo, delta_days=40.0, scale=TEST_SCALE)
        assert len(out) == 6
        results[algo] = dict(zip(out["btype"], out["cnt"]))
    assert results["tbc"] == results["tbc-sql"] == results["tbc+"] == results["tbc++"]
    assert sum(results["tbc"].values()) > 0


def test_counting_job_edge_frac(spark):
    out = run_counting.run(
        spark, "WN", "tbc++", delta_days=40.0, scale=TEST_SCALE, edge_frac=0.5
    )
    full = run_counting.run(spark, "WN", "tbc++", delta_days=40.0, scale=TEST_SCALE)
    assert out["edges"].iloc[0] < full["edges"].iloc[0]


@pytest.mark.parametrize("algo", ["tbe", "tbe+"])
def test_enumeration_job(spark, algo):
    out = run_enumeration.run(spark, "WN", algo, delta_days=40.0, scale=TEST_SCALE)
    assert out["instances"].sum() > 0
    assert set(out["btype"]) <= set(range(6))


def test_enumeration_total_matches_counting(spark):
    cnt = run_counting.run(spark, "WN", "tbc++", delta_days=40.0, scale=TEST_SCALE)
    enu = run_enumeration.run(spark, "WN", "tbe+", delta_days=40.0, scale=TEST_SCALE)
    assert cnt["cnt"].sum() == enu["instances"].sum()
    assert (enu["edges"] == cnt["edges"].iloc[0]).all()


def test_enumeration_job_without_instances(spark):
    """No instance at a tiny δ: still one zero row per type, carrying the
    dataset, algorithm, edge count and time."""
    out = run_enumeration.run(spark, "WN", "tbe+", delta_days=0.0001, scale=TEST_SCALE)
    assert list(out["btype"]) == list(range(6))
    assert (out["instances"] == 0).all()
    assert (out["dataset"] == "WN").all() and (out["algo"] == "tbe+").all()
    assert (out["edges"] > 0).all() and (out["seconds"] >= 0).all()


@pytest.mark.parametrize("algo,par", [("stbc", 1), ("stbc+", 1), ("stbc+", 2)])
def test_streaming_job(spark, algo, par):
    out = run_streaming.run(
        spark, "WN", algo, window=200, stride_pct=10.0, parallelism=par,
        delta_days=10.0, scale=TEST_SCALE,
    )
    assert out["steps"].iloc[0] > 1
    assert out["final_total"].iloc[0] >= 0
    assert out["algo"].iloc[0] == ("stbc" if algo == "stbc" else f"stbc+{par}")
