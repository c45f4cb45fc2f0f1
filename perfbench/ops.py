"""The operations the benchmark times, and the gate that checks each one.

Only public entry points of ``repro`` are called. Per-slide timing of
the STBC⁺ sliding window comes from ``SlideClock``, which the benchmark
puts in place of ``stbc_plus_batch`` as the window driver sees it: the
driver calls it once per batch, so the clock sees where each slide
starts and ends without any change to the window driver.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.enumerate_ import tbe_plus
from repro.core.optimized import count_local, grouped_wedges, tbc_plus, tbc_pp
from repro.core.schema import N_TYPES, counts_to_dict
from repro.core.wedge_set import count_group_plus
from repro.streaming import window as window_mod
from repro.streaming.window import sliding_window_stbc_plus

from workloads import DELTA, STRIDE, WINDOW


@dataclass
class Gate:
    """Counts checked operations and the ones that raised or were wrong."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, what: str, got, expected) -> bool:
        self.attempted += 1
        ok = np.array_equal(np.asarray(got), np.asarray(expected))
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: got {list(got)} expected {list(expected)}")
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"{what}: {type(exc).__name__}: {exc}")


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def as_array(d: dict[int, int]) -> np.ndarray:
    return np.array([d.get(i, 0) for i in range(N_TYPES)], dtype=np.int64)


def local_counts(edges_pdf: pd.DataFrame) -> np.ndarray:
    return np.asarray(count_local(edges_pdf, DELTA), dtype=np.int64)


def group_wedge_lists(gw: pd.DataFrame):
    """(s, e, wedge list) per group, built as the Spark kernels build them."""
    for (s, e), pdf in gw.groupby(["s", "e"], sort=True):
        ws = list(
            zip(
                pdf["m"].to_numpy(),
                pdf["lo"].to_numpy(),
                pdf["hi"].to_numpy(),
                pdf["fwd"].to_numpy(),
            )
        )
        yield int(s), int(e), ws


def plus_reference(spark, edges) -> np.ndarray:
    """Per-type counts from TBC⁺'s kernel, run here one group at a time over
    the (s, e) groups of Spark's ``grouped_wedges``. It shares neither
    ``count_local``'s wedge grouping nor the TBC⁺⁺ kernel that
    ``count_local``, ``tbc_pp`` and the stream all reach."""
    counts = np.zeros(N_TYPES, dtype=np.int64)
    for s, _e, ws in group_wedge_lists(grouped_wedges(edges, DELTA).toPandas()):
        counts += count_group_plus(ws, DELTA, s % 2)
    return counts


def tbe_plus_histogram(spark, edges) -> np.ndarray:
    """TBE⁺, every instance row materialized into a per-type histogram.

    The rows cross from the Python kernel into the JVM before the
    aggregate, so the whole enumeration output is produced.
    """
    rows = tbe_plus(spark, edges, DELTA).groupBy("btype").count().collect()
    return as_array({int(r["btype"]): int(r["count"]) for r in rows})


def spark_op(op: str, spark, edges) -> np.ndarray:
    """One call of a Spark batch entry point, as per-type counts."""
    if op == "tbc_pp":
        return as_array(counts_to_dict(tbc_pp(spark, edges, DELTA)))
    if op == "tbc_plus":
        return as_array(counts_to_dict(tbc_plus(spark, edges, DELTA)))
    if op == "tbe_plus":
        return tbe_plus_histogram(spark, edges)
    raise ValueError(f"no batch op {op!r}")


def warm_up(spark, edges, gate: Gate, expected) -> None:
    """One untimed, checked TBC⁺⁺ call: the first calls after a context
    starts run while the JVM is still compiling the plan's code."""
    gate.check("warm-up tbc_pp", spark_op("tbc_pp", spark, edges), expected)


class SlideClock:
    """Stands in for ``stbc_plus_batch``; records (mode, start, end, edges)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, float, float, int]] = []

    def __call__(self, g, batch, delta, mode, spark=None, parallelism=1):
        t0 = time.perf_counter()
        out = self.inner(g, batch, delta, mode, spark, parallelism)
        self.calls.append((mode, t0, time.perf_counter(), len(batch)))
        return out

    def slide_pairs(self) -> list[tuple[int, int]]:
        """Indices (delete call, insert call) of every slide; the initial
        window fill is an insert with no delete before it and is not a slide."""
        return [
            (i - 1, i)
            for i, c in enumerate(self.calls)
            if c[0] == "insert" and i > 0 and self.calls[i - 1][0] == "delete"
        ]

    def slides(self) -> list[float]:
        """Seconds per slide: delete batch, graph deletes, graph inserts,
        insert batch."""
        return [self.calls[j][2] - self.calls[i][1] for i, j in self.slide_pairs()]


def replay(edges_pdf: pd.DataFrame, hook, spark=None, parallelism=1, window=WINDOW):
    """The stream through ``sliding_window_stbc_plus`` (stride 1 % of the
    window), with the window driver's ``stbc_plus_batch`` calls routed
    through ``hook``."""
    original = window_mod.stbc_plus_batch
    window_mod.stbc_plus_batch = hook
    try:
        return sliding_window_stbc_plus(
            edges_pdf, window=window, stride=window // 100, delta=DELTA,
            spark=spark, parallelism=parallelism,
        )
    finally:
        window_mod.stbc_plus_batch = original


def spark_prefix(edges_pdf: pd.DataFrame, slides: int):
    """The stream prefix a Spark replay of ``slides`` slides covers."""
    return edges_pdf.iloc[: WINDOW + slides * STRIDE]


def check_stream(gate: Gate, edges_pdf, spark_steps, local_steps) -> None:
    """Spark and in-process replays agree at every common slide, and each
    replay's final window equals ``count_local`` on that window's edges."""
    for k, (a, b) in enumerate(zip(spark_steps, local_steps)):
        gate.check(f"slide {k} spark vs local", a.counts, b.counts)
    for label, steps in (("spark", spark_steps), ("local", local_steps)):
        last = steps[-1]
        gate.check(
            f"{label} final window",
            last.counts,
            local_counts(edges_pdf.iloc[last.start : last.end]),
        )
