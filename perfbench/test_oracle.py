"""Checks on the benchmark itself; no Spark session needed.

    python3 -m pytest perfbench/test_oracle.py -q

``count_local`` is the benchmark's reference for every timed result, so
it is anchored here to the independent DuckDB 4-way-join oracle
(``repro.core.brute.sql_counts``) on each workload's own generator, at
a scale the oracle finishes quickly (at bench scale it does not).
"""
from __future__ import annotations

import sys
from pathlib import Path

import duckdb
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
from repro.core.brute import sql_counts  # noqa: E402
from repro.streaming.stbc_plus import stbc_plus_batch  # noqa: E402
from workloads import DELTA, WORKLOADS, input_sha256  # noqa: E402


def duckdb_counts(pdf) -> np.ndarray:
    con = duckdb.connect()
    try:
        con.register("edges", pdf)
        return con.execute(sql_counts(DELTA)).fetchdf()["cnt"].to_numpy(dtype=np.int64)
    finally:
        con.close()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_local_matches_duckdb(name, seed):
    wl = WORKLOADS[name]
    pdf = wl.edges(seed, wl.oracle_scale)
    want = duckdb_counts(pdf)
    assert want.sum() > 0
    np.testing.assert_array_equal(ops.local_counts(pdf), want)


def test_inputs_follow_the_seed():
    wl = WORKLOADS["lf-hub"]
    a, b, c = (input_sha256(wl.edges(s, wl.oracle_scale)) for s in (3, 3, 4))
    assert a == b != c


def test_slide_clock_sees_every_slide():
    wl = WORKLOADS["lf-hub"]
    pdf = wl.edges(0, wl.oracle_scale)
    clock = ops.SlideClock(stbc_plus_batch)
    steps = ops.replay(pdf, clock, window=300)
    assert len(clock.slides()) == len(steps) - 1 > 100
    assert all(s > 0 for s in clock.slides())
    gate = ops.Gate()
    ops.check_stream(gate, pdf, steps[:5], steps)
    assert (gate.attempted, gate.failed) == (7, 0)
