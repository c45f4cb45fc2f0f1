"""The benchmark's workloads: which analog, at what size.

Every workload draws its edges from a ``repro.datasets`` analog with the
run's seed (``dataclasses.replace(cfg, seed=...)``) at δ = 40 days, and
runs the same entry points on them: TBC⁺⁺ on Spark, ``count_local``
in-process, and the edges replayed as a stream through the STBC⁺ sliding
window, on Spark and in-process. The program only ever sees the
generated edges. What differs is the shape of the graph, which decides
the layer that dominates:

* ``lf-hub``    LF analog. Six upper vertices, so a few (s, e) groups hold
  most wedges (the top group ~19 %) and the combine kernel
  (``core.wedge_set``) is the largest share of the serial work: a
  kernel change shows here. Dense windows make each slide's deltas
  real work. The traced run also calls TBC⁺, whose HP-hashmap kernel
  differs from TBC⁺⁺ only on such groups.
* ``am-sparse`` AM analog. Lemma 1 keeps ~3 % of the wedges and groups
  are tiny (p50 ≈ 3 wedges): the wedge join and per-group overhead
  dominate and the kernel does little, so a kernel-only change stays
  flat here. Sparse windows leave a slide almost nothing to count but
  Spark's fixed cost. The traced run also calls TBE⁺ here.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.schema import days
from repro.datasets import DATASETS

DELTA = days(40)
#: sliding window of the stream replay, in edges; the stride is 1 % of it
WINDOW = 1000
STRIDE = WINDOW // 100
#: slides the Spark replay covers (the in-process one covers them all)
SPARK_SLIDES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    #: scale at which the DuckDB oracle test checks ``count_local``
    oracle_scale: float
    #: Spark entry points the traced run also calls and checks
    traced_only: tuple[str, ...] = ()

    def edges(self, seed: int, scale: float | None = None) -> pd.DataFrame:
        cfg = dataclasses.replace(DATASETS[self.dataset], seed=seed)
        return cfg.generate_pdf(self.scale if scale is None else scale)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("lf-hub", "LF", 0.0002, oracle_scale=0.00005, traced_only=("tbc_plus",)),
        Workload("am-sparse", "AM", 0.0005, oracle_scale=0.0002, traced_only=("tbe_plus",)),
    ]
}


def input_sha256(edges: pd.DataFrame) -> str:
    """sha256 of the (u, v, t) columns as little-endian int64, row-major."""
    arr = np.ascontiguousarray(edges[["u", "v", "t"]].to_numpy(dtype="<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()
