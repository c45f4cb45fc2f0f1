"""Benchmark for the TBC⁺⁺ / TBE⁺ / STBC⁺ reproduction.

    python3 perfbench/run.py --workload lf-hub --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. One client in a closed loop, one
process: every operation is issued after the previous one returned.

A run starts Spark once (JVM, context, Python workers: ``jvm_launch_s``
and ``session_start_s`` in the record), sets up fifteen times (generate
the input, cache it as a DataFrame; ``setup_s`` is their median), then
measures for about ``--seconds`` (see ``measure``) and checks every
result against ``count_local``, which is itself checked against a
kernel and a wedge grouping it does not share (``ops.plus_reference``):

* ``tbc_pp_s``: TBC⁺⁺ on Spark, median of at least three warm calls;
* ``slide_p50_ms``: one slide of the STBC⁺ sliding window on Spark,
  median over the first ``SPARK_SLIDES`` slides of the stream. A slide
  is the delete batch, the graph deletes, the graph inserts and the
  insert batch;
* ``driver_peak_rss_mb``: peak resident memory of this Python process,
  where ``count_local`` and the stream graph live.

``count_local`` (the single-process yardstick) and the in-process
replay of every slide of the stream (p50, p90) are timed too, and
written to the record and the summary line, but they are not gated:
these single-threaded Python loops follow a shared host's load so
closely that their medians spread by a quarter or more between runs.
``traced.*``, ``kernel.*``, ``delta.*`` and ``graph.*`` report them per
layer. The driver JVM's peak memory is in the record only, for the same
reason. The share of operations that raised or returned wrong counts is
``failed`` / ``attempted``.

With ``--trace 1`` the run sets up once and prints the per-layer
metrics of ``layers.py`` instead. Each run writes a record (seed, |E|,
input sha256, code and tool versions, every sample) and, when traced,
its spans under ``.perfbench/``. The last line of standard output is
the result as JSON. The exit code is 1 if any result was wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
SETUPS = 15
MIN_SPARK_CALLS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def code_identity() -> dict[str, str]:
    """The git commit when there is one, and always a hash of ``src/``."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def setup(wl, seed: int, spark, previous):
    """Generate the input and cache it as the edge DataFrame the entry points
    take, dropping the previous setup's cached copy first."""
    if previous is not None:
        previous.unpersist(blocking=True)
    t0 = time.perf_counter()
    pdf = wl.edges(seed)
    edges = spark.createDataFrame(pdf).cache()
    edges.count()
    return pdf, edges, time.perf_counter() - t0


def measure(wl, spark, edges, pdf, gate, seconds: float, n: int) -> dict:
    """One ``count_local`` call, the reference every result is checked
    against, itself checked against ``ops.plus_reference``; one untimed
    TBC⁺⁺ call (the JVM compiles the plan's code during the first calls);
    then timed TBC⁺⁺ calls, each followed by a ``count_local`` call, at
    least three and until half of ``seconds`` has passed; then the stream
    on Spark, checked slide by slide against one in-process replay."""
    import ops
    from repro.streaming.stbc_plus import stbc_plus_batch
    from workloads import SPARK_SLIDES

    t_end = time.perf_counter() + seconds
    expected, t = ops.timed(ops.local_counts, pdf)
    samples: dict[str, list[float]] = {"tbc_pp": [], "count_local": [t]}
    gate.check("count_local vs plus_reference", expected, ops.plus_reference(spark, edges))
    ops.warm_up(spark, edges, gate, expected)
    calls = 0
    while calls < MIN_SPARK_CALLS or time.perf_counter() < t_end - seconds / 2:
        calls += 1
        try:
            got, t = ops.timed(ops.spark_op, "tbc_pp", spark, edges)
        except Exception as exc:  # a failed call is counted, the run goes on
            gate.error("tbc_pp", exc)
        else:
            if gate.check("tbc_pp", got, expected):
                samples["tbc_pp"].append(t)
        got, t = ops.timed(ops.local_counts, pdf)
        if gate.check("count_local", got, expected):
            samples["count_local"].append(t)

    local_clock = ops.SlideClock(stbc_plus_batch)
    local_steps = ops.replay(pdf, local_clock)
    spark_clock = ops.SlideClock(stbc_plus_batch)
    spark_steps = ops.replay(ops.spark_prefix(pdf, SPARK_SLIDES), spark_clock,
                             spark=spark, parallelism=n)
    ops.check_stream(gate, pdf, spark_steps, local_steps)
    samples["slide"] = spark_clock.slides()
    samples["local_slide"] = local_clock.slides()
    return samples


def p90(xs: list[float]) -> float:
    """p90, which needs at least ten samples beyond it."""
    if len(xs) < 100:
        raise ValueError(f"p90 of {len(xs)} samples")
    return statistics.quantiles(xs, n=10)[-1]


def end_to_end(samples: dict, setups: list[float]) -> dict:
    ms = 1e3
    return {
        "tbc_pp_s": (statistics.median(samples["tbc_pp"]), "s"),
        "slide_p50_ms": (statistics.median(samples["slide"]) * ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "driver_peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run(args) -> int:
    from workloads import WORKLOADS, input_sha256

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    import sparkenv
    import ops

    master = sparkenv.configure(ROOT, OUT / "tmp")
    n = sparkenv.parallelism()
    gate = ops.Gate()
    record: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, **code_identity(),
                    "nproc": os.cpu_count(), "parallelism": n, "master": master,
                    "shuffle_partitions": sparkenv.SHUFFLE_PARTITIONS}
    spark = None
    try:
        t0 = time.perf_counter()
        sparkenv.launch_jvm()
        record["jvm_launch_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        spark = sparkenv.new_session()
        record["session_start_s"] = time.perf_counter() - t0
        setups = []
        edges = None
        for _ in range(1 if args.trace else SETUPS):
            pdf, edges, t = setup(wl, args.seed, spark, edges)
            setups.append(t)
        record.update(sparkenv.versions(spark))
        record.update(edges_count=len(pdf), input_sha256=input_sha256(pdf),
                      setup_samples=setups)

        if args.trace:
            from layers import PER_LAYER, Tracer, trace_batch, trace_stream

            tracer = Tracer(f"{wl.name}-{args.seed}")
            layer = dict.fromkeys(PER_LAYER, 0.0)
            with tracer.span(wl.name):
                layer.update(trace_batch(wl, spark, edges, pdf, gate, tracer, n))
                layer.update(trace_stream(spark, pdf, gate, tracer, n))
            spans = OUT / f"{wl.name}_seed{args.seed}_spans.jsonl"
            tracer.write(spans)
            record["spans_file"] = str(spans.relative_to(ROOT))
            metrics = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in layer.items()}
        else:
            samples = measure(wl, spark, edges, pdf, gate, args.seconds, n)
            record["samples"] = samples
            if not all(samples.values()):
                for note in gate.notes:
                    print(f"WRONG: {note}", file=sys.stderr)
                print(f"no correct sample of {[k for k, v in samples.items() if not v]}",
                      file=sys.stderr)
                return 1
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end(samples, setups).items()}
            if (pid := sparkenv.jvm_pid()) is not None:
                record["jvm_peak_rss_mb"] = peak_rss_mb(pid)
            record["count_local_s"] = statistics.median(samples["count_local"])
            local = samples["local_slide"]
            record["local_slide_p50_ms"] = statistics.median(local) * 1e3
            record["local_slide_p90_ms"] = p90(local) * 1e3
    finally:
        sparkenv.shutdown(spark)
        shutil.rmtree(OUT / "tmp", ignore_errors=True)

    record.update(metrics=metrics, attempted=gate.attempted, failed=gate.failed,
                  failures=gate.notes)
    (OUT / f"{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    for note in gate.notes:
        print(f"WRONG: {note}", file=sys.stderr)
    if not args.trace:
        print(human_summary(record))
        for k, m in metrics.items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def human_summary(record) -> str:
    """One line per run: inputs, sample counts and the correctness tally."""
    counts = " ".join(f"{k}={len(v)}" for k, v in record["samples"].items())
    return (f"{record['workload']} seed={record['seed']} |E|={record['edges_count']} "
            f"input_sha256={record['input_sha256'][:16]} samples: {counts} "
            f"count_local_s={record['count_local_s']:.4g} "
            f"local_slide_p50_ms={record['local_slide_p50_ms']:.4g} "
            f"local_slide_p90_ms={record['local_slide_p90_ms']:.4g} "
            f"error_rate={record['failed']}/{record['attempted']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; exit 1 if any failed."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
