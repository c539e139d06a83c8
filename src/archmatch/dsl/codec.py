"""A unit's declarations as plain tuples, for `marshal`, and back.

`encode` gives each declaration as `(tag, fields)`, the tag its class's place
in `DECLARATIONS` and the fields in declaration order: a node as the tuple of
its fields, a tuple of nodes as a tuple of such tuples, a protocol expression
as a flat postfix tuple (an event name, or the operator's place in
`_OPERATORS`), and a plain value as itself. Being flat, an expression of any
depth is stored and rebuilt without recursion. `decode` rebuilds the
declarations field by field, spans included, with one constructor per record
class, generated from `_NESTED`: a decoded tree equals the parsed one in every
field, those left out of `==` too.
"""

from __future__ import annotations

from ..diagnostics import Span
from ..protocol import Alt, Eps, Ev, ProtocolExpr, Seq, Shuffle, Star, fold
from . import syntax

DECLARATIONS = (syntax.TypeDecl, syntax.InterfaceDecl, syntax.ContractDecl,
                syntax.ComponentDecl, syntax.PublicationDecl, syntax.ArchitectureDecl,
                syntax.LinkDecl)

# the fields that hold a node, or a tuple of nodes (`_TUPLES`), by name, which
# means the same in every record class, with the class of that node; every
# other field holds a plain value: a str, a bool or None
_NESTED = {
    "span": Span, "protocol_span": Span, "causal_span": Span,
    "protocol": ProtocolExpr, "causal": ProtocolExpr, "annot": syntax.Annot,
    "params": syntax.ParamDecl, "fields": syntax.FieldDecl, "methods": syntax.MethodDecl,
    "objects": syntax.ObjectRef, "morphisms": syntax.MorphismDecl,
    "object_map": syntax.MapEntry, "generator_map": syntax.GeneratorEntry,
}
_TUPLES = {"params", "fields", "methods", "objects", "morphisms", "object_map",
           "generator_map"}
_OPERATORS = (Eps, Seq, Alt, Star, Shuffle)


def _encode_expr(expr: ProtocolExpr) -> tuple:
    out: list = []
    fold(expr, lambda e, _: out.append(e.name if type(e) is Ev else _OPERATORS.index(type(e))))
    return tuple(out)


def _encode_node(node) -> tuple:
    values = []
    for name in node.__record_fields__:
        value = getattr(node, name)
        if value is None or name not in _NESTED:
            values.append(value)
        elif name in _TUPLES:
            values.append(tuple(map(_encode_node, value)))
        elif _NESTED[name] is ProtocolExpr:
            values.append(_encode_expr(value))
        else:
            values.append(_encode_node(value))
    return tuple(values)


def encode(declarations: tuple[syntax.Declaration, ...]) -> tuple:
    """The plain tuples of `declarations`, for `marshal.dumps`."""
    return tuple((DECLARATIONS.index(type(d)), _encode_node(d)) for d in declarations)


def _constructor(cls) -> str:
    """The source of `make_<class>`, a function from the field tuple of a
    `cls` to the record, made by its `__init__` as the parser makes it: a
    record made otherwise keeps its fields in a dict of its own, which makes
    each later read of a field slower."""
    values = []
    for i, name in enumerate(cls.__record_fields__):
        if name not in _NESTED:
            values.append(f"v[{i}]")
        elif name in _TUPLES:
            values.append(f"tuple(map(make_{_NESTED[name].__name__}, v[{i}]))")
        else:
            values.append(f"None if v[{i}] is None else make_{_NESTED[name].__name__}(v[{i}])")
    return f"def make_{cls.__name__}(v):\n return {cls.__name__}({', '.join(values)})\n"


def _expr(items: tuple) -> ProtocolExpr:
    stack: list = []
    for item in items:
        if type(item) is str:
            stack.append(Ev(item))
            continue
        op = _OPERATORS[item]
        if op is Eps:
            stack.append(Eps())
        elif op is Star:
            stack.append(Star(stack.pop()))
        else:
            right = stack.pop()
            stack.append(op(stack.pop(), right))
    (expr,) = stack
    return expr


_CLASSES = (Span, syntax.Annot, syntax.ParamDecl, syntax.FieldDecl, syntax.MethodDecl,
            syntax.ObjectRef, syntax.MorphismDecl, syntax.MapEntry, syntax.GeneratorEntry,
            *DECLARATIONS)
# the constructors, and the classes they call, compiled at once
_ENV: dict = {"make_ProtocolExpr": _expr, **{cls.__name__: cls for cls in _CLASSES}}
exec("".join(map(_constructor, _CLASSES)), _ENV)
_DECODERS = tuple(_ENV[f"make_{cls.__name__}"] for cls in DECLARATIONS)


def decode(value: tuple) -> tuple[syntax.Declaration, ...]:
    """The declarations `encode` gave `value` for; an error of a value it did
    not give is TypeError, ValueError, IndexError or KeyError."""
    return tuple(_DECODERS[tag](fields) for tag, fields in value)
