"""Outside-in tracer: times archmatch's public functions without editing them.

`Tracer.install` replaces module attributes with timing wrappers.  archmatch
calls its layers through module attributes (`repo` calls `dsl.parse_unit`,
`protocol.includes` calls the module-global `determinize`), so every call
on the real code path goes through a wrapper.  Spans (id, parent, name,
start, end) and counters stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter


def _tokens(args, kwargs, result):
    return {"dsl.tokens": len(result)}


def _cache_bytes(args, kwargs, result):
    return {"repo.cache_bytes": os.path.getsize(args[0])}


def _prefilter(args, kwargs, result):
    # matcher.match_requirement passes a dict view, which has a length
    return {"matcher.prefilter.kept": len(result), "matcher.prefilter.indexed": len(args[1])}


def _states(args, kwargs, result):
    return {"protocol.determinize.states": len(result.states)}


# (module, attribute, span name, extra counters from (args, kwargs, result))
TARGETS = (
    ("archmatch.dsl.parser", "tokenize", "dsl.tokenize", _tokens),
    ("archmatch.dsl", "parse_unit", "dsl.parse_unit", None),
    ("archmatch.model", "resolve", "model.resolve", None),
    ("archmatch.category", "close", "category.close", None),
    ("archmatch.model", "validate_publication", "model.validate_publication", None),
    ("archmatch.repo", "load_cache", "repo.load_cache", _cache_bytes),
    ("archmatch.repo", "build_index", "repo.build_index", None),
    ("archmatch.repo", "save_cache", "repo.save_cache", None),
    ("archmatch.repo", "load_requirement", "repo.load_requirement", None),
    ("archmatch.matcher", "match_requirement", "matcher.match_requirement", None),
    ("archmatch.matcher", "prefilter", "matcher.prefilter", _prefilter),
    ("archmatch.sigmatch", "match_module", "sigmatch.match_module", None),
    ("archmatch.sigmatch", "partial_match", "sigmatch.partial_match", None),
    ("archmatch.protocol", "compile", "protocol.compile", None),
    ("archmatch.protocol", "determinize", "protocol.determinize", _states),
    ("archmatch.protocol", "minimize", "protocol.minimize", None),
    ("archmatch.protocol", "includes", "protocol.includes", None),
)


class Tracer:
    """Spans and counters of one process; install, run, uninstall, dump."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
                tracer.counts[name + ".calls"] += 1
            if extra is not None:
                tracer.counts.update(extra(args, kwargs, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, extra in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, extra))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> Counter:
    """Per span name: summed duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Counter = Counter()
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - _covered(children.get(span_id, []))
    return out


def layer_values(trace: dict) -> dict[str, float]:
    """The per-operation layer figures of one dumped trace."""
    values: dict[str, float] = {}
    for name, seconds in self_times(trace["spans"]).items():
        values[name + ".self_s"] = seconds
    counts = trace["counts"]
    values.update({k: float(v) for k, v in counts.items()
                   if not k.startswith("matcher.prefilter.")})
    if counts.get("matcher.prefilter.indexed"):
        values["matcher.prefilter.kept_ratio"] = (counts["matcher.prefilter.kept"]
                                                  / counts["matcher.prefilter.indexed"])
    return values
