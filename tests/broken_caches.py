"""Broken variants of a real index cache file, shared by the cache robustness
tests of `repo.load_cache` and of the CLI."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from archmatch.repo import CACHE_MAGIC

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# caches of fixtures/catalog_full.txt written by earlier versions
V2_CACHE = FIXTURES / "catalog_full_v2_cache.txt"
V4_CACHE = FIXTURES / "catalog_full_v4_cache.txt"
V5_CACHE = FIXTURES / "catalog_full_v5_cache.txt"
V6_CACHE = FIXTURES / "catalog_full_v6_cache.txt"
V7_CACHE = FIXTURES / "catalog_full_v7_cache.txt"
V8_CACHE = FIXTURES / "catalog_full_v8_cache.txt"
V9_CACHE = FIXTURES / "catalog_full_v9_cache.txt"
V10_CACHE = FIXTURES / "catalog_full_v10_cache.txt"
V11_CACHE = FIXTURES / "catalog_full_v11_cache.txt"

_DELETE = object()
_COMPONENT = ("components", "AccountService")
_DFA = _COMPONENT + ("dfa",)
_METHODS = _COMPONENT + ("methods",)
_TYPES_UNIT = ("units", 0)  # the record of types.adl


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


def resealed(text: str) -> str:
    """`text` under a first line whose checksum is right for the rest of it,
    so that only decoding can find what an edit broke."""
    body = text.partition("\n")[2]
    return f"{CACHE_MAGIC} {zlib.crc32(body.encode('utf-8')):08x}\n{body}"


#: every defect of a field: a description and the edit that makes it from a
#: cache of fixtures/catalog_full.txt, which leaves the checksum wrong
FIELD_DEFECTS = {
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
    "missing shapes": _edited(_COMPONENT + ("shapes",), _DELETE),
    "wrong shape": _edited(_COMPONENT + ("shapes",), ["()"]),
    "missing units": _edited(("units",), _DELETE),
    "unit size as a string": _edited(_TYPES_UNIT + (1,), "1"),
    "unit record of nine fields": _edited(_TYPES_UNIT, lambda record: record + [None]),
    "integer digest": _edited(_TYPES_UNIT + (4,), 7),
    "declarations as a list": _edited(_TYPES_UNIT + (5,), ["type String"]),
    "self-contained as 1": _edited(_TYPES_UNIT + (6,), 1),
    "needed by a number": _edited(_TYPES_UNIT + (7,), 3),
}

#: the field defects that a warm `match` of the fixture catalog does not
#: decode: a hit checks every top-level field but leaves undecoded every entry
#: that no requirement method shares a shape with, as AccountService with a
#: wrong shape (only the checksum and `index inspect` guard against that one)
UNREAD_ON_A_HIT = {"wrong shape"}

#: every kind of defect except truncation
DEFECTS = {
    **FIELD_DEFECTS,
    "not JSON": lambda text: f"{_magic(text)}\ngarbage\n",
    "two JSON lines": lambda text: text + text.split("\n")[1] + "\n",
    "10,000 nested [": lambda text: f"{_magic(text)}\n{'[' * 10_000}\n",
    "v2 text cache": lambda text: V2_CACHE.read_text(encoding="utf-8"),
    "v4 cache": lambda text: V4_CACHE.read_text(encoding="utf-8"),
    "v5 cache": lambda text: V5_CACHE.read_text(encoding="utf-8"),
    "v6 cache": lambda text: V6_CACHE.read_text(encoding="utf-8"),
    "v7 cache": lambda text: V7_CACHE.read_text(encoding="utf-8"),
    "v8 cache": lambda text: V8_CACHE.read_text(encoding="utf-8"),
    "v9 cache": lambda text: V9_CACHE.read_text(encoding="utf-8"),
    "v10 cache": lambda text: V10_CACHE.read_text(encoding="utf-8"),
    "v11 cache": lambda text: V11_CACHE.read_text(encoding="utf-8"),
}

