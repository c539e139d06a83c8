"""The benchmark's tracer wraps archmatch functions by module and attribute
name; a rename here would silently drop a layer from `perfbench/run.py
--trace 1`, so every hook it names must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = _tracer_module().TARGETS
    assert targets
    for module_name, attribute, span, _ in targets:
        assert module_name.startswith("archmatch."), span
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), span
