"""Business and application architectures as pseudo-categories.

Objects are interfaces (business) or components (application); morphisms carry
a kind from the architecture's generator set, and two morphisms compose only
when their kinds agree: x -k-> y then y -k-> z gives x -k-> z.  Identities are
implicit on every object and are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagnostics import ERROR, WARNING, Diagnostic, Span
from .dsl import syntax
from .model import Model

EXT = "ext"
CMP = "cmp"
USE = "use"

BUSINESS_GENERATORS = frozenset({EXT, CMP})
APPLICATION_GENERATORS = frozenset({USE, CMP})


@dataclass(frozen=True)
class Morphism:
    src: str
    dst: str
    kind: str
    derived: bool = field(default=False, compare=False)

    def render(self) -> str:
        return f"{self.src} -{self.kind}-> {self.dst}"


@dataclass(frozen=True)
class PseudoCategory:
    kind: str  # syntax.BUSINESS or syntax.APPLICATION
    name: str
    objects: frozenset[str]
    morphisms: frozenset[Morphism]

    @property
    def generators(self) -> frozenset[str]:
        return BUSINESS_GENERATORS if self.kind == syntax.BUSINESS else APPLICATION_GENERATORS

    def morphism_keys(self) -> frozenset[tuple[str, str, str]]:
        return frozenset((m.src, m.dst, m.kind) for m in self.morphisms)

    def sorted_morphisms(self) -> list[Morphism]:
        return sorted(self.morphisms, key=lambda m: (m.src, m.dst, m.kind))


@dataclass(frozen=True)
class FunctorMapping:
    """A declared linkage between two architectures, to be validated."""

    name: str
    source: PseudoCategory
    target: PseudoCategory
    object_map: dict[str, str]
    generator_map: dict[str, str]

    def __hash__(self):
        return id(self)


def build(decl: syntax.ArchitectureDecl, model: Model,
          ) -> tuple[PseudoCategory | None, list[Diagnostic]]:
    """Construct a pseudo-category from an architecture declaration.

    Business objects must name interfaces, application objects components;
    morphism kinds must come from the architecture's generator set.
    """
    diagnostics: list[Diagnostic] = []
    generators = BUSINESS_GENERATORS if decl.kind == syntax.BUSINESS else APPLICATION_GENERATORS
    pool = model.interfaces if decl.kind == syntax.BUSINESS else model.components
    expected = "an interface" if decl.kind == syntax.BUSINESS else "a component"

    objects: set[str] = set()
    for ref in decl.objects:
        if ref.name in objects:
            diagnostics.append(Diagnostic(
                ERROR, ref.span or decl.span, f"duplicate object {ref.name!r}",
                "duplicate-declaration"))
            continue
        if ref.name not in pool:
            diagnostics.append(Diagnostic(
                ERROR, ref.span or decl.span,
                f"object {ref.name!r} does not name {expected}", "unknown-object"))
            continue
        objects.add(ref.name)

    morphisms: dict[tuple[str, str, str], Morphism] = {}
    for m in decl.morphisms:
        if m.kind not in generators:
            diagnostics.append(Diagnostic(
                ERROR, m.span or decl.span,
                f"morphism kind {m.kind!r} is not allowed in a {decl.kind} architecture "
                f"(allowed: {', '.join(sorted(generators))})", "bad-morphism-kind"))
            continue
        missing = [name for name in (m.src, m.dst) if name not in objects]
        if missing:
            diagnostics.append(Diagnostic(
                ERROR, m.span or decl.span,
                f"morphism references undeclared object {missing[0]!r}", "unknown-object"))
            continue
        morphisms.setdefault((m.src, m.dst, m.kind), Morphism(m.src, m.dst, m.kind))

    if any(d.severity == ERROR for d in diagnostics):
        return None, diagnostics
    category = PseudoCategory(decl.kind, decl.name, frozenset(objects),
                              frozenset(morphisms.values()))
    return category, diagnostics


def close(category: PseudoCategory) -> PseudoCategory:
    """Least fixed point of same-kind composition.

    For each object x and kind k, every object z reachable from x by one or
    more k-morphisms gets x -k-> z, added with derived=True; declared
    morphisms are kept as declared.  Idempotent.
    """
    known: dict[tuple[str, str, str], Morphism] = {
        (m.src, m.dst, m.kind): m for m in category.morphisms}
    successors: dict[tuple[str, str], set[str]] = {}
    for src, dst, kind in known:
        successors.setdefault((src, kind), set()).add(dst)
    for (src, kind), first in successors.items():
        reached, stack = set(first), list(first)
        while stack:
            for z in successors.get((stack.pop(), kind), ()):
                if z not in reached:
                    reached.add(z)
                    stack.append(z)
        for z in reached:
            known.setdefault((src, z, kind), Morphism(src, z, kind, derived=True))
    return replace(category, morphisms=frozenset(known.values()))


def check_category(category: PseudoCategory) -> list[Diagnostic]:
    """Well-formedness report: kind violations, dangling objects, and
    (as warnings) adjacent morphisms of different kinds, which do not compose."""
    diagnostics: list[Diagnostic] = []
    zero = Span(1, 1, 0, 0)
    ordered = category.sorted_morphisms()
    for m in ordered:
        if m.kind not in category.generators:
            diagnostics.append(Diagnostic(
                ERROR, zero, f"morphism {m.render()} has kind outside the generator set",
                "bad-morphism-kind"))
        for name in (m.src, m.dst):
            if name not in category.objects:
                diagnostics.append(Diagnostic(
                    ERROR, zero, f"morphism {m.render()} references unknown object {name!r}",
                    "unknown-object"))
    # each list keeps sorted order, so every kind pair gets the example a scan
    # over all morphisms would find first
    by_src: dict[str, list[Morphism]] = {}
    for g in ordered:
        by_src.setdefault(g.src, []).append(g)
    pairs: set[tuple[str, str]] = set()
    for f in ordered:
        for g in by_src.get(f.dst, ()):
            if f.kind != g.kind and (f.kind, g.kind) not in pairs:
                pairs.add((f.kind, g.kind))
                diagnostics.append(Diagnostic(
                    WARNING, zero,
                    f"composition undefined for kinds ({f.kind}, {g.kind}), "
                    f"e.g. {f.render()} then {g.render()}", "composition-undefined"))
    return diagnostics


@dataclass(frozen=True)
class FunctorCheck:
    ok: bool
    violations: tuple[str, ...] = ()


def check_functor(mapping: FunctorMapping) -> FunctorCheck:
    """Validate a pseudo-functor between two closed pseudo-categories.

    Checks that objects map to target objects, generators to target
    generators (so same-kind composition and identities are preserved), and
    every source morphism to a target morphism.  Raises ValueError when the
    maps are not total.  The callers pass closed categories: `link` closes
    the mapping's source and target first, and nothing here closes them.
    """
    source, target = mapping.source, mapping.target
    missing_objects = sorted(source.objects - set(mapping.object_map))
    if missing_objects:
        raise ValueError(f"object map is not total: missing {', '.join(missing_objects)}")
    missing_kinds = sorted(source.generators - set(mapping.generator_map))
    if missing_kinds:
        raise ValueError(f"generator map is not total: missing {', '.join(missing_kinds)}")
    bad_images = sorted(set(mapping.object_map) - source.objects)
    if bad_images:
        raise ValueError(f"object map defined on unknown objects: {', '.join(bad_images)}")

    violations: list[str] = []
    for name, image in sorted(mapping.object_map.items()):
        if image not in target.objects:
            violations.append(f"object {name} maps to unknown target object {image}")
    for kind, image in sorted(mapping.generator_map.items()):
        if image not in target.generators:
            violations.append(f"generator {kind} maps to unknown target generator {image}")
    if violations:
        return FunctorCheck(False, tuple(violations))

    target_keys = target.morphism_keys()
    for m in sorted(source.morphisms, key=lambda m: (m.src, m.dst, m.kind)):
        image = (mapping.object_map[m.src], mapping.object_map[m.dst],
                 mapping.generator_map[m.kind])
        if image not in target_keys:
            violations.append(
                f"missing target morphism {image[0]} -{image[2]}-> {image[1]} "
                f"required by {m.render()}")
    return FunctorCheck(not violations, tuple(violations))


def build_functor(decl: syntax.LinkDecl, architectures: dict[str, PseudoCategory],
                  ) -> tuple[FunctorMapping | None, list[Diagnostic]]:
    """Construct a functor mapping from a link declaration.

    Totality over the source category is checked here (an input error); the
    image conditions are left to check_functor (an analysis result)."""
    diagnostics: list[Diagnostic] = []

    def err(span: Span | None, message: str, code: str) -> None:
        diagnostics.append(Diagnostic(ERROR, span or Span(1, 1, 0, 0), message, code))

    source = architectures.get(decl.source)
    target = architectures.get(decl.target)
    if source is None:
        err(decl.span, f"unknown architecture {decl.source!r}", "unbound-name")
    if target is None:
        err(decl.span, f"unknown architecture {decl.target!r}", "unbound-name")
    if source is None or target is None:
        return None, diagnostics

    object_map: dict[str, str] = {}
    for entry in decl.object_map:
        if entry.src not in source.objects:
            err(entry.span, f"map source {entry.src!r} is not an object of {source.name}",
                "unknown-object")
            continue
        if entry.src in object_map:
            err(entry.span, f"object {entry.src!r} mapped twice", "duplicate-declaration")
            continue
        object_map[entry.src] = entry.dst
    generator_map: dict[str, str] = {}
    for entry in decl.generator_map:
        if entry.src not in source.generators:
            err(entry.span, f"generator {entry.src!r} is not a generator of {source.name}",
                "bad-morphism-kind")
            continue
        if entry.src in generator_map:
            err(entry.span, f"generator {entry.src!r} mapped twice", "duplicate-declaration")
            continue
        generator_map[entry.src] = entry.dst

    for name in sorted(source.objects - set(object_map)):
        err(decl.span, f"link {decl.name!r} does not map object {name!r}", "incomplete-map")
    for kind in sorted(source.generators - set(generator_map)):
        err(decl.span, f"link {decl.name!r} does not map generator {kind!r}", "incomplete-map")

    if diagnostics:
        return None, diagnostics
    return FunctorMapping(decl.name, source, target, object_map, generator_map), []
