"""The traced benchmark looks up its targets by name; keep every name alive.

perfbench/tracing.py wraps the functions listed in its TARGETS table with
getattr on each chipmunkring module, so renaming or deleting one of them
breaks `perfbench/run.py --trace 1`. This test fails first instead.
"""

import importlib
import runpy
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing.py imports common
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    assert targets
    missing = [
        f"{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"chipmunkring.{module}"),
                                name, None))
    ]
    assert missing == []
