"""Spark for the benchmark: launch, session, job counters, shutdown.

Configured as the test suite's root ``conftest.py`` configures it:
``local[n]`` with n = min(cores, 4), 64 shuffle partitions, Arrow on and
broadcast joins off. Every temporary file stays under ``.perfbench/``
in the checkout.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "2g"


def parallelism() -> int:
    return min(len(os.sched_getaffinity(0)), 4)


def configure(root: Path, tmp: Path) -> str:
    """Set the environment the JVM and its Python workers start with.

    Must run before the first session; returns the master URL.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    master = f"local[{parallelism()}]"
    src = str(root / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    return master


def launch_jvm() -> None:
    """Start the JVM gateway alone, so its launch is timed apart from the
    context's start."""
    from pyspark import SparkContext

    SparkContext._ensure_initialized()


def new_session():
    """A fresh SparkSession, with its Python workers started by one tiny job."""
    import pandas as pd
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    pdf = pd.DataFrame({"u": [0, 1], "v": [0, 1], "t": [1, 2]}).astype("int64")
    spark.createDataFrame(pdf).groupBy("u").applyInPandas(
        lambda p: p, schema="u long, v long, t long"
    ).count()
    return spark


def jvm_pid() -> int | None:
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    return proc.pid if proc is not None else None


def versions(spark) -> dict[str, str]:
    jvm = spark.sparkContext._jvm
    return {
        "spark": spark.version,
        "python": sys.version.split()[0],
        "java": str(jvm.System.getProperty("java.version")),
    }


class JobCounter:
    """Spark job / stage / task counts of the actions run inside ``with``.

    The actions run under a job group; after they return, the listener
    bus is drained so ``statusTracker`` has seen every job end. A stage
    counts once, and only if it ran tasks (skipped stages are reused
    shuffle output).
    """

    def __init__(self, spark, group: str):
        self.sc = spark.sparkContext
        self.group = group
        self.jobs = self.stages = self.tasks = 0

    def __enter__(self) -> "JobCounter":
        self.sc.setJobGroup(self.group, self.group)
        return self

    def __exit__(self, *exc) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        job_ids = st.getJobIdsForGroup(self.group)
        stage_ids: set[int] = set()
        for j in job_ids:
            info = st.getJobInfo(j)
            if info is not None:
                stage_ids.update(int(s) for s in info.stageIds)
        for sid in stage_ids:
            info = st.getStageInfo(sid)
            if info is not None and info.numCompletedTasks:
                self.stages += 1
                self.tasks += info.numCompletedTasks
        self.jobs = len(job_ids)


def shutdown(spark) -> None:
    """Stop the session and the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    if spark is not None:
        spark.stop()
    if gw is None:
        return
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
            raise
