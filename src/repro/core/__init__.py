"""Core algorithms of the paper: temporal butterfly counting/enumeration.

Modules
-------
schema     edge-frame conventions, gid encoding, shared constants
classify   the 6-type temporal-butterfly algebra: one table, python + generated SQL
brute      exact reference implementations (pandas + DuckDB SQL oracle)
priority   directed half-edges; vertex priority (Definition 4) as a rank
wedges     temporal wedge enumeration (Definition 1) with priority filters
baseline   TBC / TBE — the §3 baselines as pure-Catalyst dataflows
wedge_set  wedge set + wedge priority combine kernels (§4) — pure python
optimized  TBC+ / TBC++ — §4 counting, a wedge walk per start on Spark tasks
enumerate_ TBE+ — §4.3 enumeration, the same walk with an emitting kernel

Oracles that only tests run are in ``tests/reference.py``.
"""
