"""ApproxTBC (Appendix A): the ApproxBFC edge-sampling scheme of
Sanei-Mehri et al. lifted to temporal butterflies.

Every edge survives independently with probability ``p``; the exact
temporal counter (``count_local``, single-process TBC⁺⁺) runs on the
sampled graph and each per-type count is scaled by ``p^-4`` (a
butterfly survives iff its 4 edges all survive, so the estimator is
unbiased per type — the Appendix-A correctness argument). The paper's
ApproxTBC / ApproxTBC⁺ are the same wrapper over TBC / TBC⁺.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.optimized import count_local


def _check_p(p: float) -> None:
    """The estimator divides by ``p^4`` and samples with probability ``p``."""
    if not 0 < p <= 1:
        raise ValueError(f"sampling probability p must be in (0, 1], got {p!r}")


def sample_edges_pdf(edges: pd.DataFrame, p: float, seed: int) -> pd.DataFrame:
    g = np.random.default_rng(seed)
    keep = g.random(len(edges)) < p
    return edges.loc[keep].reset_index(drop=True)


def approx_tbc_local(
    edges: pd.DataFrame, delta: int, p: float, seed: int = 0
) -> np.ndarray:
    """Estimated per-type counts (floats) on a pandas edge frame, from
    ``count_local`` (single-process TBC⁺⁺) on the sample."""
    _check_p(p)
    sampled = sample_edges_pdf(edges, p, seed)
    return count_local(sampled, delta) / p**4


def mape(est: np.ndarray, exact: np.ndarray) -> float:
    """Mean absolute percentage error over the six types (paper's metric),
    ignoring types whose exact count is zero."""
    est = np.asarray(est, dtype=float)
    exact = np.asarray(exact, dtype=float)
    mask = exact > 0
    if not mask.any():
        return 0.0
    return float(np.mean(np.abs(est[mask] - exact[mask]) / exact[mask]))
