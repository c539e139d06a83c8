"""Record classes: the part of `dataclasses` that archmatch uses, one `exec` per class.

In Python 3.10-3.12 `dataclasses` runs one `exec` per generated method, and its
import pulls in `inspect`, `ast`, `dis` and `tokenize`: 85-90 ms of a warm
`archmatch match` of 0.24-0.27 s. The subset, with `dataclasses` semantics:
fields are the class's own annotations, read as strings and never evaluated;
`field` takes `default`, `default_factory`, `compare` and `repr`; `__init__`
calls `__post_init__`; `__eq__` compares two instances of one class; `__hash__`
is generated when `eq` and `frozen`, None when `eq` alone; a frozen record
refuses assignment and deletion with FrozenInstanceError. A method the class
body defines is kept. No `__slots__`, so `functools.cached_property` works.
"""

from collections import namedtuple

_MISSING = object()
_FACTORY = type("_Factory", (), {"__repr__": lambda self: "<factory>"})()  # as dataclasses shows it
Field = namedtuple("Field", "default default_factory compare repr")


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of a field of a frozen record."""


def field(*, default=_MISSING, default_factory=_MISSING, compare=True, repr=True) -> Field:
    return Field(default, default_factory, compare, repr)


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=False, eq=True):
    """Give `cls` the methods of its fields: `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    body, annotations = cls.__dict__, cls.__dict__.get("__annotations__", {})
    ns = {"__name__": cls.__module__, "_set": object.__setattr__, "_FACTORY": _FACTORY}
    fields, params, init = {}, ["self"], []
    for name in annotations:
        f = body.get(name, _MISSING)
        if not isinstance(f, Field):
            f = field(default=f)
        elif f.default is _MISSING:
            delattr(cls, name)
        else:  # the class attribute becomes the default
            setattr(cls, name, f.default)
        fields[name], value = f, name
        if f.default_factory is not _MISSING:
            ns[f"_f_{name}"] = f.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_f_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            ns[f"_d_{name}"] = f.default
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        init.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n, f in fields.items() if f.repr)
    key = "(" + "".join(f"self.{n}," for n, f in fields.items() if f.compare) + ")"
    kept = [name for name in ("__init__", "__repr__", *("__eq__", "__hash__") * eq,
                              *("__setattr__", "__delattr__") * frozen) if name not in body]
    source = {
        "__init__": "\n ".join([f"def __init__({', '.join(params)}):", *(init or ["pass"])]),
        "__repr__": f'def __repr__(self):\n return f"{{self.__class__.__qualname__}}({shown})"',
        "__eq__": "\n ".join(["def __eq__(self, other):", "if other.__class__ is not self.__class__:",
                              " return NotImplemented",
                              f"return {key} == {key.replace('self.', 'other.')}"]),
        "__hash__": f"def __hash__(self):\n return hash({key})" if frozen else "__hash__ = None"}
    exec("\n".join(source[name] for name in kept if name in source), ns)  # only what is kept
    ns.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    if "__init__" in ns:
        ns["__init__"].__annotations__ = {**annotations, "return": None}
    for name in kept:
        setattr(cls, name, ns[name])
    cls.__record_fields__ = fields
    return cls


def replace(obj, /, **changes):
    """A new record like `obj`, with `changes` to its fields, built by its `__init__`."""
    return obj.__class__(**{**{n: getattr(obj, n) for n in obj.__record_fields__}, **changes})
