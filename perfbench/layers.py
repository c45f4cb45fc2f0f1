"""The traced run: spans around the calls into each layer, per-layer metrics.

Spans are recorded from the benchmark's side of each public call and
kept in memory until the run ends. A layer's self time is its
materialized prefix minus the prefix before it:

    priority   vertex_priority(edges)            materialized to a noop sink
    wedges     wedges_pruned(edges, δ)            counted
    grouped    grouped_wedges(edges, δ)           collected (the groups feed
                                                  the serial kernel below)
    combine    the full Spark op minus the grouped prefix

The kernel layer (``core.wedge_set``) is timed serially, one call per
collected (s, e) group, so ``combine.kernel_share`` is the share of the
Spark combine stage that n parallel kernels would need.

Which end-to-end metric each layer should move, on which workload it
should show and where it should stay flat (both workloads run every
entry point, so "flat" also means the other metrics of the same run;
``count_local`` and the in-process slides are recorded, not gated):

    layer (module)                 metrics            moves          on / flat on
    core.priority                  priority.*         tbc_pp_s       am-sparse / lf-hub
    core.wedges                    wedges.*           tbc_pp_s       am-sparse / lf-hub
    core.optimized.grouped_wedges  grouped.*          tbc_pp_s       am-sparse / lf-hub
    core.wedge_set (serial)        kernel.*           tbc_pp_s,      lf-hub / am-sparse
                                                      count_local
    core.optimized combine         combine.*,         tbc_pp_s       am-sparse / lf-hub
                                   spark.jobs|stages|tasks
    core.enumerate_ (TBE⁺, traced) enum.*, tbe_plus.s (traced only)  am-sparse
    streaming.graph                graph.*            local slides   lf-hub / slide_p50_ms
    streaming.stbc (no Spark)      delta.*            local slides,  lf-hub / tbc_pp_s
                                                      slide_p50_ms
    streaming.stbc_plus (Spark)    batch.*,           slide_p50_ms   am-sparse / local slides
                                   spark.*_per_slide

On lf-hub the kernel is nearly all of ``count_local`` but only ~15 % of
``tbc_pp_s``, which is less than that metric's run-to-run spread: a
kernel-only change shows in ``kernel.*`` and the recorded
``count_local``, not in a gated metric.
"""
from __future__ import annotations

import json
import pickle
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.optimized import grouped_wedges
from repro.core.priority import vertex_priority
from repro.core.wedge_set import count_group_plus, count_group_pp, enumerate_group
from repro.core.wedges import wedges, wedges_pruned
from repro.streaming.stbc_plus import stbc_plus_batch

import ops
from sparkenv import JobCounter
from workloads import DELTA, SPARK_SLIDES, Workload

#: every per-layer metric and its unit; a call a workload's traced run
#: does not make reads 0
PER_LAYER: dict[str, str] = {
    "priority.s": "s",
    "priority.vertices": "count",
    "wedges.s": "s",
    "wedges.all": "count",
    "wedges.pruned": "count",
    "wedges.keep_ratio": "ratio",
    "grouped.s": "s",
    "grouped.wedges": "count",
    "grouped.groups": "count",
    "grouped.viable_ratio": "ratio",
    "grouped.size_p50": "count",
    "grouped.size_p99": "count",
    "grouped.size_max": "count",
    "grouped.top_share": "ratio",
    "kernel.pp_s": "s",
    "kernel.plus_s": "s",
    "kernel.enum_s": "s",
    "kernel.max_group_s": "s",
    "kernel.wedges_per_s": "1/s",
    "combine.s": "s",
    "combine.kernel_share": "ratio",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "tbc_plus.s": "s",
    "tbe_plus.s": "s",
    "enum.instances": "count",
    "enum.emit_s": "s",
    "enum.bytes_computed": "B",
    "graph.update_ms_p50": "ms",
    "delta.local_ms_p50": "ms",
    "delta.edges_per_s": "1/s",
    "batch.spark_ms_p50": "ms",
    "batch.overhead_ms_p50": "ms",
    "batch.broadcast_bytes_computed": "B",
    "spark.jobs_per_slide": "count",
    "spark.stages_per_slide": "count",
    "traced.tbc_pp_s": "s",
    "traced.count_local_s": "s",
    "traced.slide_p50_ms": "ms",
    "traced.local_slide_p50_ms": "ms",
    "overhead.tbc_pp_s": "s",
    "overhead.count_local_s": "s",
    "overhead.slide_p50_ms": "ms",
    "overhead.local_slide_p50_ms": "ms",
}

#: bytes of one enumerated instance row: nine int64 columns
INSTANCE_ROW_BYTES = 9 * 8


class Tracer:
    """In-memory spans: name, start, end, parent span, one trace id per run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "trace": self.trace_id,
            "span": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["span"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @staticmethod
    def seconds(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _serial_kernel(groups, fn) -> tuple[np.ndarray, float, float]:
    """Summed counts, total and slowest-group seconds of ``fn`` over groups."""
    total = np.zeros(6, dtype=np.int64)
    busy = slowest = 0.0
    for s, _e, ws in groups:
        t0 = time.perf_counter()
        total += fn(ws, DELTA, s % 2)
        dt = time.perf_counter() - t0
        busy += dt
        slowest = max(slowest, dt)
    return total, busy, slowest


def trace_batch(wl: Workload, spark, edges, pdf, gate: ops.Gate,
                tracer: Tracer, n: int) -> dict[str, float]:
    m: dict[str, float] = {}
    sec = Tracer.seconds
    expected = ops.local_counts(pdf)
    ops.warm_up(spark, edges, gate, expected)
    # each prefix runs from scratch, so it repeats the layers before it
    with tracer.span("priority") as p1:
        vertex_priority(edges).write.format("noop").mode("overwrite").save()
    with tracer.span("wedges") as p2:
        pruned = wedges_pruned(edges, DELTA).count()
    with tracer.span("grouped") as p3:
        gw = grouped_wedges(edges, DELTA).toPandas()
    with tracer.span("tbc_pp") as p4, JobCounter(spark, "traced-tbc_pp") as jc:
        got = ops.spark_op("tbc_pp", spark, edges)
    gate.check("traced tbc_pp", got, expected)
    with tracer.span("wedges.all"):
        all_wedges = wedges(edges).count()

    m["priority.s"] = sec(p1)
    m["priority.vertices"] = pdf["u"].nunique() + pdf["v"].nunique()
    m["wedges.s"] = sec(p2) - sec(p1)
    m["wedges.all"] = all_wedges
    m["wedges.pruned"] = pruned
    m["wedges.keep_ratio"] = pruned / all_wedges if all_wedges else 0.0
    m["grouped.s"] = sec(p3) - sec(p2)
    sizes = np.sort(gw.groupby(["s", "e"]).size().to_numpy())
    m["grouped.wedges"] = len(gw)
    m["grouped.groups"] = len(sizes)
    m["grouped.viable_ratio"] = len(gw) / pruned if pruned else 0.0
    if len(sizes):
        m["grouped.size_p50"] = float(np.percentile(sizes, 50))
        m["grouped.size_p99"] = float(np.percentile(sizes, 99))
        m["grouped.size_max"] = int(sizes[-1])
        m["grouped.top_share"] = sizes[-1] / len(gw)
    m["spark.jobs"], m["spark.stages"], m["spark.tasks"] = jc.jobs, jc.stages, jc.tasks
    m["traced.tbc_pp_s"] = sec(p4)
    after_grouped = sec(p4) - sec(p3)

    groups = list(ops.group_wedge_lists(gw))
    with tracer.span("kernel.pp"):
        pp, m["kernel.pp_s"], m["kernel.max_group_s"] = _serial_kernel(groups, count_group_pp)
    gate.check("serial pp kernel", pp, expected)
    if m["kernel.pp_s"]:
        m["kernel.wedges_per_s"] = len(gw) / m["kernel.pp_s"]

    m["combine.s"] = after_grouped
    if after_grouped > 0:
        m["combine.kernel_share"] = m["kernel.pp_s"] / (n * after_grouped)
    if "tbc_plus" in wl.traced_only:
        with tracer.span("kernel.plus"):
            plus, m["kernel.plus_s"], _ = _serial_kernel(groups, count_group_plus)
        gate.check("serial plus kernel", plus, expected)
        with tracer.span("tbc_plus") as sp:
            plus = ops.spark_op("tbc_plus", spark, edges)
        gate.check("traced tbc_plus", plus, expected)
        m["tbc_plus.s"] = sec(sp)
    if "tbe_plus" in wl.traced_only:
        with tracer.span("kernel.enum") as ks:
            rows = sum(len(enumerate_group(ws, DELTA, s % 2, s, e)) for s, e, ws in groups)
        m["kernel.enum_s"] = sec(ks)
        gate.check("serial enum kernel rows", [rows], [expected.sum()])
        with tracer.span("tbe_plus") as te:
            hist = ops.spark_op("tbe_plus", spark, edges)
        gate.check("traced tbe_plus histogram", hist, expected)
        m["tbe_plus.s"] = sec(te)
        m["enum.instances"] = hist.sum()
        m["enum.emit_s"] = sec(te) - sec(p3) - m["kernel.enum_s"] / n
        m["enum.bytes_computed"] = hist.sum() * INSTANCE_ROW_BYTES

    # tracing overhead: the same calls again with no span or job group
    untraced_op, t_op = ops.timed(ops.spark_op, "tbc_pp", spark, edges)
    gate.check("untraced tbc_pp", untraced_op, expected)
    with tracer.span("count_local") as cl:
        local = ops.local_counts(pdf)
    gate.check("traced count_local", local, expected)
    untraced_local, t_local = ops.timed(ops.local_counts, pdf)
    gate.check("untraced count_local", untraced_local, expected)
    m["traced.count_local_s"] = sec(cl)
    m["overhead.tbc_pp_s"] = m["traced.tbc_pp_s"] - t_op
    m["overhead.count_local_s"] = m["traced.count_local_s"] - t_local
    return m


class BatchTracer(ops.SlideClock):
    """``SlideClock`` that also opens a span per batch and, on the Spark
    path, counts jobs/stages and the pickled size of the broadcast graph."""

    def __init__(self, tracer: Tracer, label: str, spark=None):
        super().__init__(stbc_plus_batch)
        self.tracer, self.label, self.spark = tracer, label, spark
        self.jobs: list[tuple[int, int]] = []
        self.bcast: list[int] = []

    def __call__(self, g, batch, delta, mode, spark=None, parallelism=1):
        name = f"{self.label}.{mode}"
        with self.tracer.span(name, edges=len(batch)):
            if self.spark is None:
                return super().__call__(g, batch, delta, mode, spark, parallelism)
            with JobCounter(self.spark, f"{name}-{len(self.calls)}") as jc:
                out = super().__call__(g, batch, delta, mode, spark, parallelism)
        self.jobs.append((jc.jobs, jc.stages))
        self.bcast.append(len(pickle.dumps(dict(g.adj), pickle.HIGHEST_PROTOCOL)))
        return out


def _p50_ms(xs) -> float:
    return statistics.median(xs) * 1e3 if xs else 0.0


def trace_stream(spark, pdf, gate: ops.Gate, tracer: Tracer,
                 n: int) -> dict[str, float]:
    m: dict[str, float] = {}
    # half the untraced run's Spark slides, traced and again untraced
    prefix = ops.spark_prefix(pdf, SPARK_SLIDES // 2)

    with tracer.span("stream.spark"):
        sp = BatchTracer(tracer, "spark", spark)
        spark_steps = ops.replay(prefix, sp, spark=spark, parallelism=n)
    with tracer.span("stream.local"):
        lo = BatchTracer(tracer, "local")
        local_steps = ops.replay(pdf, lo)
    ops.check_stream(gate, pdf, spark_steps, local_steps)

    # the in-process replay runs the Spark replay's batches in the same graph
    # states, so call k of each is the same batch
    spark_ms = [(c[2] - c[1]) * 1e3 for c in sp.calls]
    local_ms = [(c[2] - c[1]) * 1e3 for c in lo.calls]
    m["batch.spark_ms_p50"] = statistics.median(spark_ms)
    m["batch.overhead_ms_p50"] = statistics.median(
        s - l for s, l in zip(spark_ms, local_ms)
    )
    m["batch.broadcast_bytes_computed"] = statistics.median(sp.bcast)
    pairs = sp.slide_pairs()
    m["spark.jobs_per_slide"] = statistics.median(sp.jobs[i][0] + sp.jobs[j][0] for i, j in pairs)
    m["spark.stages_per_slide"] = statistics.median(sp.jobs[i][1] + sp.jobs[j][1] for i, j in pairs)

    # graph update: from the end of a slide's delete batch to the start of its
    # insert batch the window driver only deletes and inserts StreamGraph edges
    m["graph.update_ms_p50"] = _p50_ms(
        [lo.calls[j][1] - lo.calls[i][2] for i, j in lo.slide_pairs()]
    )
    slide_batches = [k for pair in lo.slide_pairs() for k in pair]
    m["delta.local_ms_p50"] = _p50_ms([lo.calls[k][2] - lo.calls[k][1] for k in slide_batches])
    busy = sum(lo.calls[k][2] - lo.calls[k][1] for k in slide_batches)
    m["delta.edges_per_s"] = sum(lo.calls[k][3] for k in slide_batches) / busy if busy else 0.0

    m["traced.slide_p50_ms"] = _p50_ms(sp.slides())
    m["traced.local_slide_p50_ms"] = _p50_ms(lo.slides())
    plain_spark = ops.SlideClock(stbc_plus_batch)
    plain_steps = ops.replay(prefix, plain_spark, spark=spark, parallelism=n)
    plain_local = ops.SlideClock(stbc_plus_batch)
    ops.replay(pdf, plain_local)
    for k, (a, b) in enumerate(zip(plain_steps, spark_steps)):
        gate.check(f"untraced slide {k}", a.counts, b.counts)
    m["overhead.slide_p50_ms"] = m["traced.slide_p50_ms"] - _p50_ms(plain_spark.slides())
    m["overhead.local_slide_p50_ms"] = (
        m["traced.local_slide_p50_ms"] - _p50_ms(plain_local.slides())
    )
    return m
