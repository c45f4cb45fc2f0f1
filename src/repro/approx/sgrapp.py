"""sGrappTBC (Appendix A): the sGrapp windowed estimator lifted to
temporal butterflies.

The stream is segmented into non-overlapping windows of ``n_t_w``
unique timestamps each (the last may be short). Counts *within* each
window come from an exact temporal counter; the butterflies *spanning*
a window boundary are estimated, per type i, as ``EC_w ** theta_i`` for
every window w >= 2, where ``EC_w`` is the number of edges seen up to
and including window w — sGrapp's "butterfly count grows as a power of
the edge count" observation applied per type. ``theta_i`` is the
empirically preset exponent the paper denotes {θ_i} (typically within
[1.0, 1.5])."""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.optimized import count_local
from repro.core.schema import N_TYPES


def split_windows(edges: pd.DataFrame, n_t_w: int) -> list[pd.DataFrame]:
    """Consecutive segments of ``n_t_w`` unique timestamps each."""
    if n_t_w <= 0:
        raise ValueError("n_t_w must be positive")
    if not (np.diff(edges["t"].to_numpy()) >= 0).all():
        raise ValueError("stream edges must arrive in chronological order")
    win = pd.factorize(edges["t"])[0] // n_t_w
    return [w.reset_index(drop=True) for _, w in edges.groupby(win)]


def _windowed(
    edges: pd.DataFrame, delta: int, n_t_w: int
) -> tuple[np.ndarray, np.ndarray]:
    """The in-window counts summed over all windows, and ``EC_w`` for
    every window w >= 2."""
    windows = split_windows(edges, n_t_w)
    inwin = sum(
        (count_local(w, delta) for w in windows),
        np.zeros(N_TYPES, dtype=np.int64),
    )
    return inwin, np.cumsum([len(w) for w in windows])[1:].astype(float)


def sgrapp_tbc(
    edges: pd.DataFrame,
    delta: int,
    n_t_w: int,
    thetas: Sequence[float] = (1.0,) * N_TYPES,
) -> np.ndarray:
    """Estimated per-type counts (floats), the in-window counts from
    ``count_local`` (single-process TBC⁺⁺; the paper's
    sGrappTBC / ⁺ / ⁺⁺ differ only in that exact counter)."""
    if len(thetas) != N_TYPES:
        raise ValueError("need one theta per butterfly type")
    inwin, ecs = _windowed(edges, delta, n_t_w)
    return inwin + np.array([np.sum(ecs**th) for th in thetas])


def fit_thetas(
    edges: pd.DataFrame,
    delta: int,
    n_t_w: int,
) -> np.ndarray:
    """Empirically preset {θ_i} for a dataset/window size (paper App. A:
    "we need to empirically preset a unique θ parameter for each type"),
    with ``count_local`` as the exact counter.

    Solves, per type, Σ_{w≥2} EC_w^θ = (exact count) − (in-window count)
    by bisection — the calibration pass the paper runs on reference data
    before deploying sGrapp. θ is clamped to [0, 2]; a type whose miss
    is at most Σ_{w≥2} EC_w^0 = #windows − 1 gets θ = 0.
    """
    inwin, ecs = _windowed(edges, delta, n_t_w)
    miss = (count_local(edges, delta) - inwin).astype(float)
    out = np.zeros(N_TYPES, dtype=float)
    for i in range(N_TYPES):
        if len(ecs) == 0 or miss[i] <= len(ecs):
            continue
        lo_t, hi_t = 0.0, 2.0
        for _ in range(60):
            mid = (lo_t + hi_t) / 2
            if np.sum(ecs**mid) < miss[i]:
                lo_t = mid
            else:
                hi_t = mid
        out[i] = (lo_t + hi_t) / 2
    return out
