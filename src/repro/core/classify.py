"""The 6-type temporal butterfly algebra (Figure 1 / §4.1 of the paper).

``classify_times`` anchors the earliest of the four edges and reads the
type from the order in which the U-sharing, L-sharing, and opposite
edges follow (the table in DESIGN.md §1); ``classify_sql`` is the same
rule as one SQL expression. The paper's wedge-set formulation of the
algebra (coverage × direction pattern, then the xor layer-conversion
rule) is what the §4 kernels count in bulk; its one-pair form lives with
the tests (``tests/reference.py``), which cross-test it against
``classify_times`` on every ordering.

Both accept only butterflies with 4 pairwise-distinct timestamps; the
caller filters ties (the paper assumes tie-broken timestamps).
"""
from __future__ import annotations


def classify_times(t11: int, t12: int, t21: int, t22: int) -> int:
    """Type of the butterfly with edge times tXY = t(uX, vY).

    ``u1, u2`` are the U-layer vertices and ``v1, v2`` the L-layer ones;
    the labelling within a layer does not matter (the classification is
    invariant under u1<->u2 and v1<->v2 swaps). Times must be pairwise
    distinct.
    """
    ts = (t11, t12, t21, t22)
    if len(set(ts)) != 4:
        raise ValueError(f"timestamps must be pairwise distinct: {ts}")
    anchor = min(ts)
    # anchor edge (a, b): shareU = (a, b'), shareL = (a', b), opp = (a', b')
    if anchor == t11:
        su, sl, op = t12, t21, t22
    elif anchor == t12:
        su, sl, op = t11, t22, t21
    elif anchor == t21:
        su, sl, op = t22, t11, t12
    else:
        su, sl, op = t21, t12, t11
    if sl < su and sl < op:  # e2 shares the L vertex
        return 0 if su < op else 3
    if su < sl and su < op:  # e2 shares the U vertex
        return 1 if sl < op else 2
    # e2 is the opposite edge
    return 4 if sl < su else 5


def classify_sql(t11: str, t12: str, t21: str, t22: str) -> str:
    """SQL CASE expression computing the butterfly type.

    The same text is valid Spark SQL and DuckDB SQL, so the correctness
    oracle and the Catalyst baseline share one classification source.
    Inputs are SQL expressions for the four (pairwise-distinct) times.
    """
    anchor = f"LEAST({t11}, {t12}, {t21}, {t22})"
    su = (
        f"(CASE WHEN {anchor} = {t11} THEN {t12} WHEN {anchor} = {t12} THEN {t11} "
        f"WHEN {anchor} = {t21} THEN {t22} ELSE {t21} END)"
    )
    sl = (
        f"(CASE WHEN {anchor} = {t11} THEN {t21} WHEN {anchor} = {t12} THEN {t22} "
        f"WHEN {anchor} = {t21} THEN {t11} ELSE {t12} END)"
    )
    op = (
        f"(CASE WHEN {anchor} = {t11} THEN {t22} WHEN {anchor} = {t12} THEN {t21} "
        f"WHEN {anchor} = {t21} THEN {t12} ELSE {t11} END)"
    )
    return (
        f"(CASE WHEN {sl} < {su} AND {sl} < {op} THEN "
        f"(CASE WHEN {su} < {op} THEN 0 ELSE 3 END) "
        f"WHEN {su} < {sl} AND {su} < {op} THEN "
        f"(CASE WHEN {sl} < {op} THEN 1 ELSE 2 END) "
        f"ELSE (CASE WHEN {sl} < {su} THEN 4 ELSE 5 END) END)"
    )

