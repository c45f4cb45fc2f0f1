"""The paper's 11 KONECT datasets, as scaled synthetic analogs (Table 3).

Each config preserves the real dataset's |E| : |U| : |L| ratios and time
span and adds two generator knobs — ``follow_frac`` / ``gap_days`` —
that recreate the temporal locality implied by the dataset's Table-4
type distribution (e.g. Epinions' T0-heavy profile ⇒ strong, short-lag
follower behaviour). Paper-reported statistics are kept alongside so
jobs can print paper-vs-measured rows (see EXPERIMENTS.md).

Substitution note (DESIGN.md §3): the real KONECT dumps are not
available offline; these analogs exercise identical code paths with the
same skew/locality mechanisms at 1/1000–1/100 scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.synth_data import temporal_bipartite_pdf


@dataclass(frozen=True)
class DatasetConfig:
    """One Table-3 row plus the generator knobs of its synthetic analog."""

    name: str
    entities: str
    paper_edges: int
    paper_upper: int
    paper_lower: int
    span_days: float
    follow_frac: float
    gap_days: float
    follow_u_frac: float = 0.5
    copycat_frac: float = 0.0
    alpha_u: float = 1.1
    alpha_l: float = 1.1
    #: benchmark scale — smaller for the densest analogs so one bench run
    #: stays minutes, mirroring the paper's 100k-second cap with DNFs
    bench_scale: float = 0.002
    seed: int = 0

    #: vertex counts scale as scale**VERTEX_EXP — sublinear, so scaled
    #: analogs keep a realistic (not explosive) edge density: scaling
    #: |E|, |U|, |L| all linearly would keep average degree constant but
    #: multiply butterfly *density* far beyond what tiny graphs can hold.
    VERTEX_EXP = 0.85

    def sizes(self, scale: float) -> tuple[int, int, int]:
        n_e = max(400, int(self.paper_edges * scale))
        vscale = scale**self.VERTEX_EXP
        n_u = max(6, int(self.paper_upper * vscale))
        n_l = max(6, int(self.paper_lower * vscale))
        return n_e, n_u, n_l

    def generate_pdf(self, scale: float) -> pd.DataFrame:
        n_e, n_u, n_l = self.sizes(scale)
        return temporal_bipartite_pdf(
            n_upper=n_u,
            n_lower=n_l,
            n_edges=n_e,
            span_days=self.span_days,
            alpha_u=self.alpha_u,
            alpha_l=self.alpha_l,
            follow_frac=self.follow_frac,
            follow_u_frac=self.follow_u_frac,
            gap_days=self.gap_days,
            copycat_frac=self.copycat_frac,
            seed=self.seed,
        )

    def generate(self, spark: SparkSession, scale: float) -> DataFrame:
        return spark.createDataFrame(self.generate_pdf(scale))


#: Table 3 of the paper, in its row order, with generator knobs.
DATASETS: dict[str, DatasetConfig] = {
    c.name: c
    for c in [
        DatasetConfig("WQ", "user-page", 776_458, 961, 640_482, 4625.66, 0.35, 8.0),
        DatasetConfig("WN", "user-page", 907_499, 2_200, 35_979, 4857.34, 0.45, 3.0, copycat_frac=0.5),
        DatasetConfig("SO", "user-post", 1_301_942, 545_196, 96_680, 1153.00, 0.30, 6.0),
        DatasetConfig("CU", "tag-publication", 2_411_819, 153_277, 731_769, 1203.10, 0.35, 5.0),
        DatasetConfig("BS", "tag-publication", 2_555_080, 204_673, 767_447, 7665.43, 0.35, 5.0),
        DatasetConfig("TW", "user-tag", 4_664_605, 175_214, 530_418, 1155.34, 0.25, 10.0),
        DatasetConfig("AM", "user-product", 5_838_041, 2_146_057, 1_230_915, 3650.00, 0.30, 6.0),
        DatasetConfig("ER", "user-page", 8_349_235, 7_816, 1_266_349, 4976.35, 0.30, 10.0, bench_scale=0.001),
        DatasetConfig("EP", "user-product", 13_668_320, 120_492, 755_760, 504.96, 0.65, 0.3, follow_u_frac=0.8, copycat_frac=0.95, alpha_u=0.3, alpha_l=0.8, bench_scale=0.0005),
        DatasetConfig("LF", "user-band", 19_150_868, 992, 174_077, 3149.77, 0.25, 12.0, bench_scale=0.0005),
        DatasetConfig("WT", "user-page", 44_788_448, 66_140, 5_826_113, 5941.22, 0.15, 20.0, bench_scale=0.0005),
    ]
}

#: Table 4 of the paper: per-type percentage of total counts at δ=40 days.
PAPER_TABLE4: dict[str, tuple[float, float, float, float, float, float]] = {
    "WQ": (18.4, 22.6, 29.5, 15.2, 6.9, 7.5),
    "ER": (17.1, 34.1, 24.0, 12.2, 7.2, 5.4),
    "WT": (15.8, 19.8, 19.7, 16.6, 14.3, 13.8),
    "TW": (11.1, 26.2, 26.3, 13.1, 12.2, 11.0),
    "LF": (15.1, 21.6, 21.8, 16.9, 13.1, 11.6),
    "CU": (20.6, 15.1, 19.7, 20.6, 11.3, 12.7),
    "BS": (21.0, 13.0, 19.4, 22.1, 10.9, 13.6),
    "SO": (19.3, 20.5, 19.2, 21.8, 10.0, 9.2),
    "AM": (23.1, 19.6, 19.2, 20.7, 9.1, 8.4),
    "WN": (30.1, 12.2, 12.6, 19.8, 20.2, 5.1),
    "EP": (51.1, 3.2, 6.1, 34.4, 1.4, 3.8),
}
