"""The benchmark's tracer wraps archmatch functions by module and attribute
name; a rename here would silently drop a layer from `perfbench/run.py
--trace 1`, so every hook it names must exist, and a call moved between the
protocol stages would skew its per-stage counts: `protocol.determinize.calls`
and `.states` count constructions only if every call builds a DFA."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from archmatch import matcher, protocol, repo
from archmatch.sigmatch import TypeLattice

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
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


def test_every_determinize_call_is_a_construction(monkeypatch):
    passed_through: list[bool] = []

    def recording(a, *args, _real=protocol.determinize, **kwargs):
        result = _real(a, *args, **kwargs)
        passed_through.append(result is a)
        return result
    monkeypatch.setattr(protocol, "determinize", recording)
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    index = repo.build_index(catalog, m)
    for name in ("manage_documents_req.adl", "manage_documents_view_req.adl",
                 "manage_portfolio_req.adl"):
        req, merged, _ = repo.load_requirement(FIXTURES / name, catalog, m)
        matcher.match_requirement(req, index, TypeLattice.from_types(merged.types))
    assert passed_through and not any(passed_through), passed_through


def test_the_trace_counts_each_index_construction_once():
    catalog, m, _ = repo.load(FIXTURES / "catalog_full.txt")
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        repo.build_index(catalog, m)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    for stage in ("compile", "determinize", "minimize"):
        assert counts[f"protocol.{stage}.calls"] == len(m.components), stage
    states = 0
    for comp in m.components.values():
        alphabet = comp.provided_interface.method_names()
        expr = comp.provided_protocol
        expr = protocol.universal_expr(alphabet) if expr is None else expr
        states += len(protocol.determinize(protocol.compile(expr, alphabet=alphabet)).states)
    assert counts["protocol.determinize.states"] == states
