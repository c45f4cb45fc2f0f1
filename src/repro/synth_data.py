"""Synthetic temporal bipartite graphs: the dataset substrate.

``temporal_bipartite_pdf`` drives the 11 dataset analogs of
``repro.datasets``; ``extreme_hub_pdf`` is the paper's Figure-8 case.
Generators are deterministic in ``seed`` so every oracle sees identical
input.
"""
import numpy as np
import pandas as pd

from repro.core.schema import MS_PER_DAY


def _zipf_choice(
    g: np.random.Generator, n_ids: int, size: int, alpha: float
) -> np.ndarray:
    """ids 0..n_ids-1 drawn with P(i) ∝ 1/(i+1)^alpha (power-law degrees)."""
    ranks = np.arange(1, n_ids + 1, dtype=np.float64)
    w = ranks**-alpha
    w /= w.sum()
    return g.choice(n_ids, size=size, p=w)


def temporal_bipartite_pdf(
    *,
    n_upper: int,
    n_lower: int,
    n_edges: int,
    span_days: float,
    alpha_u: float = 1.1,
    alpha_l: float = 1.1,
    follow_frac: float = 0.3,
    follow_u_frac: float = 0.5,
    gap_days: float = 5.0,
    copycat_frac: float = 0.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Synthetic temporal bipartite multigraph, time-sorted, distinct times.

    Two edge populations model what drives temporal butterflies in the
    paper's real datasets:

    * **base** edges: endpoints zipfian in each layer (degree skew),
      timestamps uniform over the span;
    * **follower** edges (fraction ``follow_frac``): copy one endpoint of
      a random base edge and re-draw the other, at a time lagging the
      source by Exp(``gap_days``) — temporal locality / co-action, the
      mechanism behind T0-style "follower" butterflies. A
      ``follow_u_frac`` share keeps the L endpoint (a new user repeats an
      action soon after), the rest keeps the U endpoint (the same user
      explores a new item). Within the keep-L followers, a
      ``copycat_frac`` share uses the *successor* of the source user
      instead of a fresh draw — persistent follower pairs, which is what
      produces the T0/T3-dominated profiles of datasets like Epinions.

    Columns: ``u``, ``v``, ``t`` (ms). Deterministic in ``seed``.
    """
    g = np.random.default_rng(seed)
    span_ms = max(int(span_days * MS_PER_DAY), 4 * n_edges)
    n_follow = int(n_edges * follow_frac)
    n_base = n_edges - n_follow
    u = _zipf_choice(g, n_upper, n_base, alpha_u)
    v = _zipf_choice(g, n_lower, n_base, alpha_l)
    t = g.integers(0, span_ms, size=n_base)
    if n_follow:
        src = g.integers(0, n_base, size=n_follow)
        gap = g.exponential(gap_days * MS_PER_DAY, size=n_follow).astype(np.int64) + 1
        ft = np.minimum(t[src] + gap, span_ms - 1)
        keep_v = g.random(n_follow) < follow_u_frac
        copycat = keep_v & (g.random(n_follow) < copycat_frac)
        fresh_u = _zipf_choice(g, n_upper, n_follow, alpha_u)
        # copy direction ±1: successor-only would forbid reciprocal (T3-
        # style) butterflies; a successor-biased mix yields both strict
        # follower (T0) and mutual (T3) pairs, T0-leaning as in Epinions
        step = np.where(g.random(n_follow) < 2 / 3, 1, -1)
        fu = np.where(
            copycat, (u[src] + step) % n_upper, np.where(keep_v, fresh_u, u[src])
        )
        fv = np.where(keep_v, v[src], _zipf_choice(g, n_lower, n_follow, alpha_l))
        u = np.concatenate([u, fu])
        v = np.concatenate([v, fv])
        t = np.concatenate([t, ft])
    order = np.argsort(t, kind="stable")
    pdf = pd.DataFrame(
        {
            "u": u[order].astype(np.int64),
            "v": v[order].astype(np.int64),
            "t": t[order],
        }
    )
    # Tie-break to pairwise-distinct timestamps (the paper's assumption):
    # bump each sorted draw to the next free integer — sub-ms nudges on a
    # multi-day span, so the distribution is effectively unchanged.
    ts = pdf["t"].to_numpy()
    idx = np.arange(len(ts), dtype=np.int64)
    pdf["t"] = np.maximum.accumulate(ts - idx) + idx
    return pdf.astype("int64")


def extreme_hub_pdf(
    *, n_middles: int, span_days: float = 10.0, seed: int = 0
) -> pd.DataFrame:
    """The paper's Figure-8 extreme case: two high-degree vertices.

    Two upper hubs ``u0, u1`` each connect once to every one of
    ``n_middles`` lower vertices, at pairwise-distinct times spread over
    the span. Every wedge lands in one (start, end) group with a
    distinct ``t_s``; with δ covering the span the TBC⁺ hashmap keeps
    all of them, so its Query degenerates to the quadratic α ≈ |W(u)|
    regime that §4.4's tree structures (TBC⁺⁺) are built to fix.
    """
    g = np.random.default_rng(seed)
    n = 2 * n_middles
    t = g.permutation(n).astype(np.int64) * max(
        1, int(span_days * MS_PER_DAY) // n
    )
    return pd.DataFrame(
        {
            "u": np.repeat(np.arange(2, dtype=np.int64), n_middles),
            "v": np.tile(np.arange(n_middles, dtype=np.int64), 2),
            "t": t,
        }
    ).astype("int64")
