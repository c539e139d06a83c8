"""`archmatch.records` against the standard library's `dataclasses`.

Every archmatch module that declares records is executed a second time with
`dataclasses.dataclass` in place of `records.record`, which gives each record
class a stdlib twin built from the same declaration: the same annotations,
defaults, flags and class body. The tests check that a record and its twin
agree on what archmatch uses.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archmatch
from archmatch import records
from archmatch.dsl import syntax
from archmatch.protocol import Alt, Eps, FiniteAutomaton, Seq


def _twin_module(module: types.ModuleType) -> types.ModuleType:
    """`module` executed again, with `dataclasses` in place of `records`."""
    source = re.sub(r"^from \.+records import .*$",
                    "from dataclasses import dataclass as record, field, replace",
                    inspect.getsource(module), flags=re.M)
    twin = types.ModuleType(module.__name__)  # so that each twin has its record's qualname
    twin.__package__ = module.__package__
    exec(compile(source, module.__file__, "exec"), twin.__dict__)
    return twin


def _record_pairs() -> list[tuple[type, type]]:
    pairs = []
    for info in pkgutil.walk_packages(archmatch.__path__, "archmatch."):
        module = importlib.import_module(info.name)
        if module is records or "records import" not in inspect.getsource(module):
            continue
        twin = _twin_module(module)
        ours = {name for name, obj in vars(module).items() if isinstance(obj, type)
                and "__record_fields__" in vars(obj) and obj.__module__ == module.__name__}
        assert ours == {name for name, obj in vars(twin).items()
                        if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}
        pairs += [(getattr(module, name), getattr(twin, name)) for name in sorted(ours)]
    return pairs


PAIRS = _record_pairs()
# few values, so that two draws are often equal; a dict makes hashing fail
VALUES = st.sampled_from([None, 0, 1, "", "a", (), ("a", 1), frozenset(), frozenset({0}), {}])


def outcome(f, *args, **kwargs):
    """What a call gives: ("value", result) or ("raised", exception type name, message)."""
    try:
        return "value", f(*args, **kwargs)
    except Exception as err:
        return "raised", type(err).__name__, str(err)


def observed(result):
    """An outcome as a record and its twin can share it: values by repr and fields."""
    return result if result[0] == "raised" else ("value", repr(result[1]), vars(result[1]))


def hash_kind(cls):
    """None, "fields" for a generated `__hash__`, or the qualname of the one kept."""
    method = cls.__hash__
    if method is None:
        return None
    code = getattr(method, "__code__", None)
    return "fields" if code is not None and code.co_filename == "<string>" else method.__qualname__


@st.composite
def arguments(draw, twin):
    """Positional and keyword arguments for the `__init__` of `twin`: every
    required field, and each defaulted one or not."""
    args, kwargs, positional = [], {}, True
    for f in dataclasses.fields(twin):
        defaulted = f.default is not dataclasses.MISSING or \
            f.default_factory is not dataclasses.MISSING
        positional = positional and draw(st.booleans())
        if defaulted and draw(st.booleans()):
            positional = False  # the fields after a left-out one are passed by name
        elif positional:
            args.append(draw(VALUES))
        else:
            kwargs[f.name] = draw(VALUES)
    return args, kwargs


def test_every_record_class_has_a_twin():
    assert len(PAIRS) >= 57
    assert all(not dataclasses.is_dataclass(cls) for cls, _ in PAIRS)


@pytest.mark.parametrize("cls, twin", PAIRS, ids=[cls.__qualname__ for cls, _ in PAIRS])
def test_records_have_the_signature_and_flags_of_their_twin(cls, twin):
    assert str(inspect.signature(cls.__init__)) == str(inspect.signature(twin.__init__))
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert hash_kind(cls) == hash_kind(twin)
    assert (cls.__eq__ is object.__eq__) == (twin.__eq__ is object.__eq__)
    assert "__slots__" not in vars(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    for name in names:  # class attributes: the default, or none
        assert getattr(cls, name, "none") == getattr(twin, name, "none")
    r, t = cls.__new__(cls), twin.__new__(twin)  # frozen or not whatever the fields hold
    for name in names + ["other"]:
        assert outcome(setattr, r, name, 0) == outcome(setattr, t, name, 0)
        assert outcome(delattr, r, name) == outcome(delattr, t, name)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_records_agree_with_their_twins(data):
    cls, twin = data.draw(st.sampled_from(PAIRS))
    args, kwargs = data.draw(arguments(twin))
    ours, theirs = outcome(cls, *args, **kwargs), outcome(twin, *args, **kwargs)
    assert observed(ours) == observed(theirs)
    if ours[0] == "raised":  # FiniteAutomaton's __post_init__ rejects most draws
        return
    r, t = ours[1], theirs[1]
    assert r.__eq__(t) is NotImplemented and t.__eq__(r) is NotImplemented
    if hash_kind(cls) == "fields":
        assert outcome(hash, r) == outcome(hash, t)

    args, kwargs = data.draw(arguments(twin))
    r2, t2 = outcome(cls, *args, **kwargs), outcome(twin, *args, **kwargs)
    if r2[0] == "value":
        assert (r == r2[1], r != r2[1]) == (t == t2[1], t != t2[1])

    names = [f.name for f in dataclasses.fields(twin)]
    changes = data.draw(st.dictionaries(st.sampled_from(names), VALUES)) if names else {}
    assert observed(outcome(records.replace, r, **changes)) == \
        observed(outcome(dataclasses.replace, t, **changes))

    name, value = data.draw(st.sampled_from(names + ["other"])), data.draw(VALUES)
    assert outcome(setattr, r, name, value) == outcome(setattr, t, name, value)
    assert outcome(delattr, r, name) == outcome(delattr, t, name)
    assert vars(r) == vars(t)


def test_a_frozen_record_refuses_assignment_and_deletion_with_an_attribute_error():
    entry = syntax.MapEntry("s", "t", None)
    with pytest.raises(AttributeError, match="cannot assign to field 'src'"):
        entry.src = "u"
    with pytest.raises(AttributeError, match="cannot delete field 'src'"):
        del entry.src
    assert entry == syntax.MapEntry("s", "t", None)


def test_records_of_two_classes_with_the_same_fields_differ():
    twins = dict(PAIRS)
    for a, b in [(syntax.MapEntry, syntax.GeneratorEntry), (syntax.TypeDecl, syntax.FieldDecl)]:
        for x, y in [(a, b), (twins[a], twins[b])]:
            assert x("s", "t", None) != y("s", "t", None)
            assert x("s", "t", None) == x("s", "t", "another span")
    for x, y in [(Seq, Alt), (twins[Seq], twins[Alt])]:  # two ProtocolExpr subclasses
        assert x(Eps(), Eps()) != y(Eps(), Eps())
        assert x(Eps(), Eps()) == x(Eps(), Eps())


def test_finite_automaton_rejects_a_bad_start_state():
    twin = dict(PAIRS)[FiniteAutomaton]
    bad = (frozenset({0}), frozenset({"a"}), frozenset(), 1, frozenset())
    assert outcome(FiniteAutomaton, *bad) == outcome(twin, *bad) == \
        ("raised", "ValueError", "start or accepting state not in states")


def test_replace_refuses_a_name_that_is_not_a_field():
    twin = dict(PAIRS)[syntax.MapEntry]
    with pytest.raises(TypeError):
        records.replace(syntax.MapEntry("s", "t", None), other=0)
    with pytest.raises(TypeError):
        dataclasses.replace(twin("s", "t", None), other=0)


def test_the_cli_imports_neither_dataclasses_nor_what_match_never_calls():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, archmatch.cli; print(sorted({'dataclasses', 'inspect', "
            "'archmatch.category', 'archmatch.dsl.printer'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
