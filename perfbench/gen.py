"""Seeded catalog and requirement generator for the archmatch benchmark.

Everything is a pure function of its arguments: the same seed, component
count and mix give byte-identical files.  Each requirement carries the answer
it was built to have (`Query.action`, `Query.component`).  That answer comes
from the construction, never from archmatch's output:

* a requirement copies one component's interface, method names and types
  included, so that component matches exactly with every name equal;
* its protocol is either the component's own protocol, a word the template
  guarantees is in the component's language, or a word the template
  guarantees is not (see `Template`);
* a NEW requirement only uses types no catalog unit declares.

Signatures keep the expected top component unique.  In the private-type
styles every component declares its own type, so no other component can
match at all.  In the shared style no two components have the same method
set, and all have the same number of methods; then only the source
component can score 1.0 (exact kind, every name equal, protocol holds) or
0.9 (the same without a protocol).  `perfbench/tests/test_bench.py`
checks the answers on small catalogs with a brute-force signature
assignment and the language oracle of the repository's test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

USE = "USE"
ADAPT = "ADAPT"
NEW = "NEW"

FAMILIES = ("seq", "alt", "star", "interleave", "nest")

SHARED_TYPES = (
    "type String;\n"
    "type Key;\n"
    "type Entity;\n"
    "type Doc <: Entity;\n"
    "type Memo <: Doc;\n"
)
# shared style: one parameter from a subtype chain, so any two parameter types
# are comparable and about 40% of components match a requirement completely
_PARAM_TYPES = ("Entity", "Doc", "Memo")
_RETURN_TYPES = (None, None, None, "Key")
# nine names, four per component: the keyword prefilter keeps a component
# unless its names miss all four of the requirement's, about 96% of them
VOCABULARY = ("get", "put", "list", "find", "open", "close", "scan", "load", "save")


@dataclass(frozen=True)
class Mix:
    """What a catalog is made of.

    `templates` weighs the protocol families; `k` is the number of pairs in
    an interleaving and `depth` the number of nested stars.  `publications`
    is the rotation of publication styles over components: "explicit" (a
    publication declaration with the default causal relation),
    "explicit-causal" (one with a causal block), "causal" (a causal block on
    the component itself) and "default" (no declaration).  `chain` puts the
    first `chain` components into a `use` chain architecture.  `shared` draws
    method names and types from one vocabulary instead of per-component ones.
    """

    templates: tuple[tuple[str, int], ...] = (("seq", 1), ("alt", 1), ("star", 1))
    methods: int = 3
    k: int = 2
    depth: int = 2
    required: bool = True
    publications: tuple[str, ...] = ("default",)
    chain: int = 0
    shared: bool = False


@dataclass(frozen=True)
class Template:
    """A protocol over a method list with two facts the generator relies on:
    `inside` denotes a sub-language of `expr`, and the single trace
    `outside` is not in the language of `expr`."""

    family: str
    expr: str
    inside: str
    outside: str


def _ev(names) -> str:
    return " ".join(f"?{n}" for n in names)


def template(family: str, names: list[str], rng: random.Random, k: int,
             depth: int) -> Template:
    """Instantiate one protocol family over `names` (at least two)."""
    n = len(names)
    if family == "seq":
        # L = {m0 m1 ... m(n-1)}
        return Template(family, _ev(names), _ev(names), _ev([names[1], names[0]]))
    if family == "alt":
        # L = {m0 m1, m2, ..., m(n-1)}: one alternative per call
        parts = [_ev(names[:2])] + [f"?{m}" for m in names[2:]]
        pick = rng.randrange(len(parts))
        return Template(family, " + ".join(parts), parts[pick], _ev([names[0]] * 2))
    if family == "star":
        # L = (m0 + ... + m(n-2))* m(n-1)
        body = " + ".join(f"?{m}" for m in names[:-1])
        last = names[-1]
        word = [rng.choice(names[:-1]) for _ in range(rng.randrange(3))] + [last]
        return Template(family, f"({body})* ?{last}", _ev(word), _ev([last, names[0]]))
    if family == "interleave":
        # L = (m0 m1)* | (m2 m3)* | ...: k independent request/response pairs
        pairs = [names[2 * i:2 * i + 2] for i in range(min(k, n // 2))]
        expr = " | ".join(f"({_ev(p)})*" for p in pairs)
        firsts = [p[0] for p in pairs]
        seconds = [p[1] for p in pairs]
        rng.shuffle(firsts)
        rng.shuffle(seconds)
        # every pair opened before any is closed is an interleaving of one round each
        return Template(family, expr, _ev(firsts + seconds), f"?{pairs[0][1]}")
    if family == "nest":
        # e1 = m0* m1, e(i) = (e(i-1))* m(i): each word ends in exactly one m(d)
        d = max(1, min(depth, n - 1))
        expr = f"?{names[0]}"
        for i in range(1, d + 1):
            expr = f"({expr})* ?{names[i]}"
        return Template(family, expr, _ev(names[:d + 1]), _ev([names[d]] * 2))
    raise ValueError(f"unknown protocol family {family!r}")


def methods_needed(mix: Mix) -> int:
    need = mix.methods
    for family, _ in mix.templates:
        if family == "interleave":
            need = max(need, 2 * mix.k)
        elif family == "nest":
            need = max(need, mix.depth + 1)
    return max(need, 2)


@dataclass(frozen=True)
class Method:
    name: str
    params: tuple[str, ...]
    ret: str | None

    def render(self) -> str:
        params = ", ".join(f"p{i}: {t}" for i, t in enumerate(self.params))
        ret = f": {self.ret}" if self.ret else ""
        return f"{self.name}({params}){ret};"


@dataclass(frozen=True)
class Component:
    index: int
    name: str
    path: str
    own_type: str | None
    methods: tuple[Method, ...]
    template: Template


@dataclass(frozen=True)
class Query:
    """A requirement file and the answer it was built to get."""

    path: str
    text: str
    action: str
    component: str | None
    family: str


@dataclass
class Catalog:
    """Generated files, keyed by path relative to the catalog directory."""

    files: dict[str, str]
    components: list[Component]
    queries: list[Query] = field(default_factory=list)

    def write(self, root) -> None:
        root = Path(root)
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


def _draw_family(mix: Mix, rng: random.Random) -> str:
    families = [f for f, _ in mix.templates]
    weights = [w for _, w in mix.templates]
    return rng.choices(families, weights)[0]


def _private_methods(i: int, count: int, own: str, rng: random.Random) -> tuple[Method, ...]:
    out = []
    for j in range(count):
        arity = 1 + rng.randrange(2)
        params = (own,) + ("String",) * (arity - 1)
        ret = own if rng.random() < 0.3 else None
        out.append(Method(f"svc{i}op{j}", params, ret))
    return tuple(out)


def _shared_methods(count: int, rng: random.Random, seen: set) -> tuple[Method, ...]:
    # redraw until the method set is new: equal method sets would tie for the top rank
    while True:
        names = rng.sample(VOCABULARY, count)
        methods = tuple(Method(name, (rng.choice(_PARAM_TYPES),), rng.choice(_RETURN_TYPES))
                        for name in names)
        key = frozenset(methods)
        if key not in seen:
            seen.add(key)
            return methods


def _unit_text(c: Component, mix: Mix, style: str) -> str:
    i = c.index
    lines = [f"// generated unit {i}"]
    if c.own_type:
        lines.append(f"type {c.own_type};")
    iface = f"Ops{i}"
    lines.append(f"interface {iface} {{")
    lines += [f"  {m.render()}" for m in c.methods]
    lines.append("}")
    dep_type = c.own_type or "Key"
    if mix.required:
        lines.append(f"interface Deps{i} {{\n  dep{i}call(p0: {dep_type});\n}}")
    lines.append(f"contract Ctr{i} implements {iface} {{\n"
                 f"  protocol {{ {c.template.expr} }}\n}}")
    required = f"\n  required interface Deps{i}" if mix.required else ""
    # causal relation satisfying the projection condition by construction:
    # the provided protocol, then any number of required calls
    causal = f"\n  causal {{ ({c.template.expr}) (?dep{i}call)* }}" if mix.required else ""
    body = f"  provided contract Ctr{i}{required}"
    if style == "causal":
        body += causal
    lines.append(f"component {c.name} {{\n{body}\n}}")
    if style in ("explicit", "explicit-causal"):
        pub_body = f"  provided contract Ctr{i}{required}"
        if style == "explicit-causal":
            pub_body += causal
        lines.append(f"publication {c.name}Pub {{\n{pub_body}\n}}")
    return "\n".join(lines) + "\n"


def _chain_text(components: list[Component]) -> str:
    lines = ["architecture application Chain {"]
    lines += [f"  object {c.name};" for c in components]
    lines += [f"  morphism {a.name} -use-> {b.name};"
              for a, b in zip(components, components[1:])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _make_component(i: int, mix: Mix, rng: random.Random, seen: set) -> Component:
    count = methods_needed(mix)
    family = _draw_family(mix, rng)
    if mix.shared:
        own = None
        methods = _shared_methods(count, rng, seen)
    else:
        own = f"D{i}"
        methods = _private_methods(i, count, own, rng)
    names = [m.name for m in methods]
    tpl = template(family, names, rng, mix.k, mix.depth)
    return Component(i, f"Service{i}", f"units/u{i:05d}.adl", own, methods, tpl)


def _render_catalog(components: list[Component], mix: Mix) -> dict[str, str]:
    files = {"types.adl": SHARED_TYPES}
    for c in components:
        style = mix.publications[c.index % len(mix.publications)]
        files[c.path] = _unit_text(c, mix, style)
    paths = ["types.adl"] + [c.path for c in components]
    if mix.chain:
        files["chain.adl"] = _chain_text(components[:mix.chain])
        paths.append("chain.adl")
    files["catalog.txt"] = "# generated catalog\n" + "\n".join(paths) + "\n"
    return files


def generate(seed: int, n: int, mix: Mix) -> Catalog:
    """A catalog of `n` components drawn from `mix`, seeded by `seed`."""
    rng = random.Random(f"catalog:{seed}:{n}:{mix!r}")
    seen: set = set()
    components = [_make_component(i, mix, rng, seen) for i in range(n)]
    return Catalog(_render_catalog(components, mix), components)


def edit(catalog: Catalog, mix: Mix, index: int, rng: random.Random) -> str:
    """Redraw component `index`'s protocol (same family, methods in new
    roles) and return the unit's path.  Signatures stay, so answers about other
    components do not change."""
    old = catalog.components[index]
    names = [m.name for m in old.methods]
    # a rotation of the method roles that changes the text, so the cache goes stale
    for shift in rng.sample(range(1, len(names)), len(names) - 1):
        tpl = template(old.template.family, names[shift:] + names[:shift], rng,
                       mix.k, mix.depth)
        if tpl.expr != old.template.expr:
            break
    new = Component(old.index, old.name, old.path, old.own_type, old.methods, tpl)
    catalog.components[index] = new
    style = mix.publications[index % len(mix.publications)]
    catalog.files[new.path] = _unit_text(new, mix, style)
    return new.path


def _requirement_text(k: int, c: Component | None, methods, protocol: str | None,
                      fresh: str | None) -> str:
    lines = [f"// requirement {k}"]
    if c is not None and c.own_type:
        lines.append(f"type {c.own_type};")
    if fresh:
        lines.append(f"type {fresh};")
    lines.append(f"interface Want{k} {{")
    lines += [f"  {m.render()}" for m in methods]
    lines.append("}")
    if protocol is not None:
        lines.append(f"contract WantSpec{k} implements Want{k} {{\n"
                     f"  protocol {{ {protocol} }}\n}}")
    return "\n".join(lines) + "\n"


def requirement(k: int, kind: str, components: list[Component],
                rng: random.Random) -> Query:
    """One requirement of `kind`, built from a randomly drawn component.

    Kinds: "use" (the component's protocol language or a sub-language),
    "use-plain" (no protocol), "use-renamed" (no protocol, every method
    renamed), "adapt-protocol" (a trace the component rejects),
    "adapt-partial" (one extra method of a fresh type) and "new" (fresh types
    only).  Private-type catalogs support every kind; shared catalogs support
    "use" and "use-plain".  No workload draws "use-renamed": the keyword
    prefilter answers it NEW (the name-blocking defect in ROADMAP), and a
    workload must not fail by design; a test keeps its expected answer right.
    """
    c = rng.choice(components)
    methods = list(c.methods)
    rng.shuffle(methods)
    fresh = None
    protocol = None
    action, target = USE, c.name
    if kind == "use":
        protocol = rng.choice((c.template.expr, c.template.inside))
    elif kind == "adapt-protocol":
        protocol = c.template.outside
        action = ADAPT
    elif kind == "adapt-partial":
        fresh = f"Fresh{k}"
        methods.append(Method(f"want{k}extra", (fresh,), None))
        action = ADAPT
    elif kind == "use-renamed":
        # names never block a match: the same signatures under fresh names
        methods = [Method(f"want{k}op{j}", m.params, m.ret) for j, m in enumerate(methods)]
    elif kind == "new":
        fresh = f"Fresh{k}"
        methods = [Method(f"want{k}op{j}", (fresh,) * (1 + j % 2), None) for j in range(3)]
        c, action, target = None, NEW, None
    elif kind != "use-plain":
        raise ValueError(f"unknown requirement kind {kind!r}")
    text = _requirement_text(k, c, methods, protocol, fresh)
    family = c.template.family if c is not None else "-"
    return Query(f"req/r{k:04d}.adl", text, action, target, f"{kind}/{family}")


def add_queries(catalog: Catalog, seed: int, kinds: list[str], count: int,
                targets: list[int] | None = None) -> None:
    """Append `count` requirements cycling through `kinds`; targets are drawn
    from `targets` (component indices) or from the whole catalog."""
    rng = random.Random(f"queries:{seed}:{count}:{kinds!r}")
    pool = ([catalog.components[i] for i in targets] if targets is not None
            else catalog.components)
    for k in range(count):
        q = requirement(k, kinds[k % len(kinds)], pool, rng)
        catalog.queries.append(q)
        catalog.files[q.path] = q.text
