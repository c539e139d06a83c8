"""Broken variants of a real index cache file, shared by the cache robustness
tests of `repo.load_cache` and of the CLI."""

from __future__ import annotations

import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# caches of fixtures/catalog_full.txt written by earlier versions
V2_CACHE = FIXTURES / "catalog_full_v2_cache.txt"
V4_CACHE = FIXTURES / "catalog_full_v4_cache.txt"
V5_CACHE = FIXTURES / "catalog_full_v5_cache.txt"
V6_CACHE = FIXTURES / "catalog_full_v6_cache.txt"
V7_CACHE = FIXTURES / "catalog_full_v7_cache.txt"

_DELETE = object()
_COMPONENT = ("components", "AccountService")
_DFA = _COMPONENT + ("dfa",)
_METHODS = _COMPONENT + ("methods",)


def _edited(path: tuple, value):
    """An edit of a cache text that sets the JSON field at `path` to `value`,
    deletes it, or, for a callable `value`, replaces it by `value(field)`; the
    document is written back as save_cache writes it."""
    def edit(text: str) -> str:
        magic, body, _ = text.split("\n")
        doc = json.loads(body)
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        elif callable(value):
            target[path[-1]] = value(target[path[-1]])
        else:
            target[path[-1]] = value
        return f"{magic}\n{json.dumps(doc, sort_keys=True, separators=(',', ':'))}\n"
    return edit


def _magic(text: str) -> str:
    return text.split("\n")[0]


#: every kind of defect except truncation: a description and the edit that
#: makes it from a cache of fixtures/catalog_full.txt
DEFECTS = {
    "string state count": _edited(_DFA + ("states",), "1"),
    "integer method name": _edited(_METHODS + (0, 0), 7),
    "boolean start state": _edited(_DFA + ("start",), False),
    "transition to an unknown state": _edited(_DFA + ("transitions", 0, 2), 5),
    "huge state count": _edited(_DFA + ("states",), 10**12),
    "symbol outside the alphabet": _edited(_DFA + ("alphabet",), []),
    "alphabet as a string": _edited(_DFA + ("alphabet",), "getBalance listTransactions"),
    "unknown field": _edited(_DFA + ("final",), [0]),
    "transitions out of order": _edited(_DFA + ("transitions",), [[0, "listTransactions", 0],
                                                                   [0, "getBalance", 0]]),
    "method of two fields": _edited(_METHODS + (0,), ["getBalance", []]),
    "parameter of three fields": _edited(_METHODS + (0, 1, 0), ["a", "String", "x"]),
    "components as a list": _edited(("components",), []),
    "missing hash": _edited(("hash",), _DELETE),
    "not JSON": lambda text: f"{_magic(text)}\ngarbage\n",
    "two JSON lines": lambda text: text + text.split("\n")[1] + "\n",
    "10,000 nested [": lambda text: f"{_magic(text)}\n{'[' * 10_000}\n",
    "v2 text cache": lambda text: V2_CACHE.read_text(encoding="utf-8"),
    "v4 cache": lambda text: V4_CACHE.read_text(encoding="utf-8"),
    "v5 cache": lambda text: V5_CACHE.read_text(encoding="utf-8"),
    "v6 cache": lambda text: V6_CACHE.read_text(encoding="utf-8"),
    "v7 cache": lambda text: V7_CACHE.read_text(encoding="utf-8"),
    "integer type name": _edited(("types", 0, 0), 7),
    "supertype as a list": _edited(("types", 0, 1), ["Account"]),
    "type of three fields": _edited(("types", 0), ["String", None, None]),
    "unsorted names": _edited(("names",), lambda names: names[::-1]),
    "duplicated name": _edited(("names",), lambda names: names + names[-1:]),
    "integer name": _edited(("names",), lambda names: [0] + names),
    "state limit true": _edited(("state_limit",), True),
    "state limit 0": _edited(("state_limit",), 0),
    "state limit as a string": _edited(("state_limit",), "100"),
    "unknown top-level field": _edited(("zzz",), [1, 2, 3]),
    "integer protocol": _edited(_COMPONENT + ("protocol",), 7),
    "missing protocol": _edited(_COMPONENT + ("protocol",), _DELETE),
    "missing checked": _edited(("checked",), _DELETE),
    "checked keys out of order": _edited(("checked",), lambda keys: keys[::-1]),
    "duplicated checked key": _edited(("checked",), lambda keys: keys + keys[-1:]),
    "checked key as a string": _edited(("checked", 0), "(?inquire ?lookup)*"),
    "integer in a checked key": _edited(("checked", 0, 0), 7),
}
