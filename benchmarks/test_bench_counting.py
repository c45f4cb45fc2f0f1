"""Overall counting/enumeration performance (the Figure 11/12 claims).

Backs the paper's headline comparisons: TBC < TBC⁺ < TBC⁺⁺ and
TBE < TBE⁺, with the baseline skipped on the dense analogs (the analog
of its DNF on LF/WT under the paper's 100k-second cap), plus the
generic temporal-motif comparator that §6 excludes for blowing up.
The Spark rows, enumerators included, come from ``jobs/run_counting.py``.
Rows → ``results/counting.csv``, EXPERIMENTS.md § Figure 11.
"""
from __future__ import annotations

import pytest
import run_counting

from benchmarks._util import once, record
from repro.core.schema import days
from repro.datasets import DATASETS
from repro.motif.generic import generic_motif_counts

#: all three counters on the lighter analogs (TW included although dense:
#: it is the row that exposes the baseline's quadratic wedge-pair cost)...
LIGHT = ["WQ", "WN", "SO", "BS", "AM", "TW"]
#: ...but only the optimized ones on the densest analogs (baseline "DNF")
HEAVY = ["CU", "ER", "EP", "LF", "WT"]


def _record(benchmark, dataset, out):
    """One counting.csv row from ``run_counting``'s per-type output."""
    row = {
        "dataset": dataset, "algo": out["algo"].iloc[0],
        "edges": int(out["edges"].iloc[0]), "total": int(out["cnt"].sum()),
        "seconds": float(out["seconds"].iloc[0]),
    }
    benchmark.extra_info.update(row)
    record("counting", row)


@pytest.mark.parametrize("algo", ["tbc", "tbc+", "tbc++"])
@pytest.mark.parametrize("name", LIGHT)
def test_counting_light(benchmark, spark, name, algo):
    out = once(benchmark, lambda: run_counting.run(spark, name, algo))
    _record(benchmark, name, out)


@pytest.mark.parametrize("algo", ["tbc+", "tbc++"])
@pytest.mark.parametrize("name", HEAVY)
def test_counting_heavy(benchmark, spark, name, algo):
    out = once(benchmark, lambda: run_counting.run(spark, name, algo))
    _record(benchmark, name, out)


@pytest.mark.parametrize("algo", ["tbe", "tbe+"])
@pytest.mark.parametrize("name", ["WQ", "WN", "SO"])
def test_enumeration(benchmark, spark, name, algo):
    out = once(benchmark, lambda: run_counting.run(spark, name, algo))
    _record(benchmark, name, out)


@pytest.mark.parametrize("algo", ["tbc", "tbc+", "tbc++"])
def test_counting_scaled_tw(benchmark, spark, algo):
    """TW at 1.5x the bench scale: the regime where the baseline's
    quadratic wedge-pair join visibly falls behind (paper: 1.9x–161.9x
    TBC⁺ speedups, with outright DNFs on the dense datasets — at 2.5x
    scale our TBC no longer finishes in the bench budget either)."""
    out = once(benchmark, lambda: run_counting.run(spark, "TW", algo, scale=0.003))
    _record(benchmark, "TW@0.003", out)


def test_generic_motif_comparator(benchmark, spark):
    """The excluded competitor, at the smallest analog: already slow."""
    pdf = DATASETS["WQ"].generate_pdf(DATASETS["WQ"].bench_scale)
    counts = once(benchmark, lambda: generic_motif_counts(pdf, days(40)))
    out = {
        "dataset": "WQ", "algo": "generic-motif", "edges": len(pdf),
        "total": int(counts.sum()),
        "seconds": round(benchmark.stats.stats.mean, 3),
    }
    benchmark.extra_info.update(out)
    record("counting", out)
