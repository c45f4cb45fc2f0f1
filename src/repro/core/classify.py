"""The 6-type temporal butterfly algebra (Figure 1 / §4.1 of the paper).

The types are defined once, by DESIGN.md §1's table as code: anchor at
the earliest edge, and read the type off the roles of the second and
third edges (``TYPE_OF``). ``classify_times`` applies the table in
Python; ``classify_sql`` generates one SQL expression from it.

The §4 kernels never call this module: they type each wedge pair by the
SetCross class it is found in (``wedge_set``). That rule for a single
pair lives with the tests (``tests/reference.py``), which cross-test it
against ``classify_times`` on every ordering.

Both accept only butterflies with 4 pairwise-distinct timestamps; the
caller filters ties (the paper assumes tie-broken timestamps).
"""
from __future__ import annotations

#: the roles of the other three edges against the anchor (a, b): (a, b')
#: shares its U vertex, (a', b) its L vertex, (a', b') neither. With
#: tXY at index 2·(X−1) + (Y−1) of (t11, t12, t21, t22), a role is an
#: xor mask: the edge in role r of the anchor at index i is at i ^ r
SHARE_U, SHARE_L, OPP = 1, 2, 3
ROLES = (SHARE_L, SHARE_U, OPP)

#: DESIGN.md §1: (role of e2, role of e3) → type
TYPE_OF = {
    (SHARE_L, SHARE_U): 0,
    (SHARE_L, OPP): 3,
    (SHARE_U, SHARE_L): 1,
    (SHARE_U, OPP): 2,
    (OPP, SHARE_L): 4,
    (OPP, SHARE_U): 5,
}


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
    a = ts.index(min(ts))
    e2, e3, _ = sorted(ROLES, key=lambda r: ts[a ^ r])
    return TYPE_OF[e2, e3]


def classify_sql(t11: str, t12: str, t21: str, t22: str) -> str:
    """SQL CASE expression computing the butterfly type.

    The same text is valid Spark SQL and DuckDB SQL, so the correctness
    oracle and the Catalyst baseline share one classification source.
    Inputs are SQL expressions for the four (pairwise-distinct) times.
    The outer CASE has one branch per role of e2, the last as ``ELSE``.
    """
    ts = (t11, t12, t21, t22)
    anchor = f"LEAST({t11}, {t12}, {t21}, {t22})"
    role = {
        r: "(CASE "
        + " ".join(f"WHEN {anchor} = {ts[a]} THEN {ts[a ^ r]}" for a in range(3))
        + f" ELSE {ts[3 ^ r]} END)"
        for r in ROLES
    }
    branches = []
    for e2 in ROLES:
        x, y = (r for r in ROLES if r != e2)
        first = f"{role[e2]} < {role[x]} AND {role[e2]} < {role[y]}"
        then = (
            f"(CASE WHEN {role[x]} < {role[y]} THEN {TYPE_OF[e2, x]} "
            f"ELSE {TYPE_OF[e2, y]} END)"
        )
        branches.append((first, then))
    whens = "".join(f"WHEN {first} THEN {then} " for first, then in branches[:-1])
    return f"(CASE {whens}ELSE {branches[-1][1]} END)"
