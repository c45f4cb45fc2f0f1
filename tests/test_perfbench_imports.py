"""The benchmark harness under ``perfbench/`` imports against the current
``repro``: a renamed or deleted name that it uses fails here, not only
when the benchmark runs."""
from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("ops", "layers", "workloads", "sparkenv"):
        importlib.import_module(name)
