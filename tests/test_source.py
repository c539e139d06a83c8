"""The source itself: no helper is left behind that nothing names.

A function, class or method that only its own definition names is dead code
that a refactor left behind; the test finds it with `ast`, by name, so a name
used anywhere in `src/archmatch` (called, imported, passed or listed in
`__all__`) keeps every definition of that name alive."""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "archmatch"
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> set[str]:
    """The functions perfbench/tracer.py times, which it may be alone in naming."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attribute for _, attribute, _, _ in module.TARGETS}


def _definitions(tree: ast.Module):
    """Each module-level function or class and each method that is no dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (member for member in node.body
                        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__")))


def _uses(tree: ast.AST) -> Counter:
    """How often `tree` uses each name: as a name, an attribute, an import or a string."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value] += 1  # `__all__` and `dsl.__getattr__` name the lazy exports
    return uses


def test_every_helper_is_named_somewhere_but_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SOURCE.rglob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    exempt = _traced() | {"__getattr__"}  # the module hook of `dsl`
    unnamed = [f"{path.relative_to(SOURCE)}:{node.lineno}: {node.name}"
               for path, tree in trees.items() for node in _definitions(tree)
               if node.name not in exempt and uses[node.name] == _uses(node)[node.name]]
    assert unnamed == []
