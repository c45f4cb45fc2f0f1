"""Regenerate the measured sections of EXPERIMENTS.md from results/*.csv.

    python jobs/build_experiments_md.py        # prints markdown to stdout

Run ``pytest benchmarks/ --benchmark-only`` first; the run rewrites
``results/*.csv`` with one row per benchmark. This script renders those
rows as the paper-vs-measured markdown tables embedded in
EXPERIMENTS.md.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _md(df: pd.DataFrame) -> str:
    """Minimal GitHub-markdown table (pandas.to_markdown needs tabulate,
    which is not in the offline environment)."""
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for _, row in df.iterrows():
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:g}")
            else:
                cells.append(str(v))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def render() -> str:
    parts: list[str] = []

    t3 = pd.read_csv(RESULTS / "table3.csv")
    parts.append("### Table 3 (measured)\n\n" + _md(t3))

    t4 = pd.read_csv(RESULTS / "table4.csv")
    parts.append("### Table 4 (measured)\n\n" + _md(t4))

    cnt = pd.read_csv(RESULTS / "counting.csv")
    piv = cnt.pivot_table(index=["dataset", "edges"], columns="algo",
                          values="seconds", aggfunc="min").reset_index()
    parts.append("### Counting/enumeration wall-clock seconds (Fig. 11 analog)\n\n" + _md(piv))

    ds = pd.read_csv(RESULTS / "delta_sweep.csv")
    parts.append("### δ sweep (Fig. 13/16 analog)\n\n" + _md(ds))

    sc = pd.read_csv(RESULTS / "scalability.csv")
    parts.append("### Scalability (Fig. 15 analog)\n\n" + _md(sc))

    ex = pd.read_csv(RESULTS / "extreme.csv")
    parts.append("### §4.4 extreme case (Fig. 8 scenario)\n\n" + _md(ex))

    st = pd.read_csv(RESULTS / "streaming.csv")
    parts.append("### Streaming (Fig. 18–20 analog)\n\n" + _md(st))

    ap = pd.read_csv(RESULTS / "approx.csv")
    parts.append("### Approximation (Fig. 21/22 analog)\n\n" + _md(ap))

    return "\n\n".join(parts) + "\n"


if __name__ == "__main__":
    print(render())
