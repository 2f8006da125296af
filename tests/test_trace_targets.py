"""The benchmark's tracer wraps functions by name (``perfbench/child.py``'s
``TARGETS``). A refactor that renames or moves one of them must fail here,
not only when the benchmark runs with ``--trace 1``."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for module_name, attr, _ in targets:
        owner = importlib.import_module("counterchain." + module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_model_table_keeps_cache_info():
    from counterchain import prover
    info = prover.model_table.cache_info()
    assert info.hits >= 0 and info.misses >= 0
