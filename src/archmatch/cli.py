"""Command-line surface: check, arch, protocol, match, link, index.

Exit codes: 0 for success or a positive analysis verdict, 1 for a negative
analysis verdict (inclusion fails, no usable component, broken link), 2 for
usage or input errors, 3 for an internal error (reported on one stderr line).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import category, dsl, matcher, protocol, repo
from .diagnostics import ERROR, Diagnostic
from .sigmatch import TypeLattice

STATE_LIMIT_ENV = "ARCHMATCH_STATE_LIMIT"


def _display_path(path: str, base: Path | None) -> str:
    p = Path(path)
    if base is not None and p.is_absolute():
        try:
            return str(p.relative_to(base.resolve()))
        except ValueError:
            return path
    return path


def _print_diagnostics(diagnostics: list[Diagnostic], base: Path | None,
                       quiet: bool) -> None:
    for d in sorted(diagnostics, key=lambda d: (d.path, d.span.offset, d.message)):
        if quiet and d.severity != ERROR:
            continue
        where = _display_path(d.path, base) if d.path else "<input>"
        click.echo(f"{where}:{d.span}: {d.severity}: {d.message} [{d.code}]", err=True)


def _input_error(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


class Session:
    def __init__(self, catalog_path: str | None, cache_path: str | None, quiet: bool,
                 state_limit: int):
        self.catalog_path = catalog_path
        self.cache_path = cache_path
        self.quiet = quiet
        self.state_limit = state_limit
        self._loaded: tuple[repo.Catalog, object] | None = None

    @property
    def base_dir(self) -> Path | None:
        return Path(self.catalog_path).parent if self.catalog_path else None

    def note(self, message: str) -> None:
        if not self.quiet:
            click.echo(message, err=True)

    def require_catalog(self) -> tuple[repo.Catalog, object]:
        if self.catalog_path is None:
            _input_error("this command needs a catalog (pass --catalog PATH)")
        if self._loaded is None:
            catalog, model_, diagnostics = repo.load(self.catalog_path, self.state_limit)
            _print_diagnostics(diagnostics, self.base_dir, self.quiet)
            if catalog is None:
                sys.exit(2)
            self._loaded = (catalog, model_)
        return self._loaded


class _Group(click.Group):
    """Maps a protocol over the state limit to one stderr line and exit code 2, and
    an unexpected exception to one line and exit code 3 (exit code 1 is a negative
    verdict); click's exceptions and SystemExit pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except protocol.ProtocolTooLarge as err:
            _input_error(str(err))
        except Exception as err:
            click.echo(f"error: internal error: {type(err).__name__}: {err}", err=True)
            sys.exit(3)


@click.group(cls=_Group)
@click.option("--catalog", "catalog_path", metavar="PATH",
              help="Catalog file listing the repository's ADL units.")
@click.option("--cache", "cache_path", metavar="PATH",
              help="Compiled-index cache file (default: <catalog>.idx).")
@click.option("--quiet", is_flag=True, help="Suppress warnings and progress notes.")
@click.pass_context
def main(ctx: click.Context, catalog_path: str | None, cache_path: str | None,
         quiet: bool) -> None:
    """Architecture repository analysis and component matching."""
    state_limit = protocol.DEFAULT_STATE_LIMIT
    raw = os.environ.get(STATE_LIMIT_ENV)
    if raw is not None:
        try:
            state_limit = int(raw)
            if state_limit <= 0:
                raise ValueError
        except ValueError:
            _input_error(f"{STATE_LIMIT_ENV} must be a positive integer, got {raw!r}")
    ctx.obj = Session(catalog_path, cache_path, quiet, state_limit)


@main.command()
@click.argument("paths", nargs=-1, required=True, metavar="UNIT...")
@click.pass_obj
def check(session: Session, paths: tuple[str, ...]) -> None:
    """Parse and resolve ADL units; exit 0 iff there are no errors."""
    units, trees, diagnostics = repo.parse_units(list(paths))
    if not any(d.severity == ERROR for d in diagnostics):
        _, _, _, analysis_diags = repo.analyze(trees, session.state_limit)
        diagnostics = diagnostics + analysis_diags
    _print_diagnostics(diagnostics, session.base_dir, session.quiet)
    errors = sum(1 for d in diagnostics if d.severity == ERROR)
    if errors:
        sys.exit(2)
    session.note(f"checked {len(units)} unit(s): ok")


@main.command()
@click.argument("name", required=False)
@click.option("--closure", is_flag=True, help="List derived morphisms as well.")
@click.option("--check", "run_check", is_flag=True, help="Report category diagnostics.")
@click.pass_obj
def arch(session: Session, name: str | None, closure: bool, run_check: bool) -> None:
    """Print the objects and morphisms of the catalog's architectures."""
    catalog, _ = session.require_catalog()
    if name is not None and name not in catalog.architectures:
        _input_error(f"unknown architecture {name!r}")
    names = [name] if name else sorted(catalog.architectures)
    for arch_name in names:
        cat = catalog.architectures[arch_name]
        click.echo(f"architecture {cat.kind} {arch_name}")
        for obj in sorted(cat.objects):
            click.echo(f"  object {obj}")
        declared = [m for m in cat.sorted_morphisms() if not m.derived]
        derived = [m for m in cat.sorted_morphisms() if m.derived]
        for m in declared:
            click.echo(f"  morphism {m.render()}")
        if closure:
            for m in derived:
                click.echo(f"  morphism {m.render()} (derived)")
            click.echo(f"  {len(declared)} declared, {len(derived)} derived")
        else:
            click.echo(f"  {len(declared)} declared")
        if run_check:
            for d in category.check_category(cat):
                click.echo(f"  {d.severity}: {d.message}")


def _protocol_source(session: Session, target: str, unit: str | None):
    """The automaton named by `target`, or compiled from it as an expression."""
    if any(c in target for c in "?()*+|; "):
        expr, diags = dsl.parse_protocol(target)
        if expr is None:
            _print_diagnostics(diags, None, session.quiet)
            sys.exit(2)
        return protocol.compile(expr)
    if unit is not None:
        units, trees, diagnostics = repo.parse_units([unit])
        model_, _, _, analysis_diags = repo.analyze(trees, session.state_limit)
        _print_diagnostics(diagnostics + analysis_diags, None, session.quiet)
        if model_ is None:
            sys.exit(2)
    else:
        _, model_ = session.require_catalog()
    contract = model_.contracts.get(target)
    if contract is not None:
        alphabet = contract.iface.method_names()
        if contract.prot is None:
            return protocol.universal(alphabet)
        return protocol.compile(contract.prot, alphabet=alphabet)
    publication = model_.publications.get(target)
    if publication is not None:
        return protocol.compile(publication.provided.traces,
                                alphabet=publication.provided.iface.method_names())
    component = model_.components.get(target)
    if component is not None:
        alphabet = component.provided_interface.method_names()
        if component.provided_protocol is None:
            return protocol.universal(alphabet)
        return protocol.compile(component.provided_protocol, alphabet=alphabet)
    _input_error(f"unknown contract, publication, or component {target!r}")


@main.command(name="protocol")
@click.argument("target", metavar="NAME_OR_EXPR")
@click.option("--emit-dfa", is_flag=True,
              help="Emit the minimal DFA in the textual transition-list format (default).")
@click.option("--sample", type=int, metavar="N",
              help="List all accepted traces of length <= N instead.")
@click.option("--unit", metavar="FILE",
              help="Resolve NAME in this unit file instead of the catalog.")
@click.pass_obj
def protocol_cmd(session: Session, target: str, emit_dfa: bool, sample: int | None,
                 unit: str | None) -> None:
    """Compile a protocol to a DFA, or enumerate its accepted traces.

    NAME_OR_EXPR is a declared contract/publication/component name, or a
    literal protocol expression such as "(?a + ?b)*".
    """
    if emit_dfa and sample is not None:
        _input_error("--emit-dfa and --sample are mutually exclusive")
    auto = _protocol_source(session, target, unit)
    dfa = protocol.minimize(protocol.determinize(auto, session.state_limit))
    if sample is not None:
        if sample < 0:
            _input_error("--sample must be >= 0")
        for trace in protocol.sample_traces(dfa, sample, session.state_limit):
            click.echo(" ".join(trace) if trace else "(empty)")
    else:
        click.echo(protocol.emit_dfa_text(dfa), nl=False)


@main.command()
@click.argument("requirement", metavar="REQUIREMENT_FILE")
@click.option("--format", "output_format", type=click.Choice(["text", "json"]),
              default="text", help="Report format (default text).")
@click.pass_obj
def match(session: Session, requirement: str, output_format: str) -> None:
    """Match a requirement against the repository; exit 0 on USE/ADAPT, 1 on NEW."""
    catalog, model_ = session.require_catalog()
    req, merged, diagnostics = repo.load_requirement(requirement, catalog, model_)
    _print_diagnostics(diagnostics, session.base_dir, session.quiet)
    if req is None:
        sys.exit(2)
    index, origin, reason = repo.load_index(catalog, model_, session.cache_path,
                                            state_limit=session.state_limit)
    note = f"index: {origin} ({len(index.entries)} component(s)"
    if reason is not None:  # a CacheError message names the cache itself
        note += f"; cache {reason}" if reason.startswith(("missing", "stale")) else f"; {reason}"
    session.note(note + ")")
    lattice = TypeLattice.from_types(merged.types)
    result = matcher.match_requirement(req, index, lattice, state_limit=session.state_limit)
    if output_format == "json":
        click.echo(json.dumps(_result_to_json(req, result), indent=2))
    else:
        click.echo(result.recommendation.render())
        for report in result.reports:
            click.echo("")
            click.echo(matcher.explain(report))
    sys.exit(0 if result.recommendation.action in (matcher.USE, matcher.ADAPT) else 1)


def _result_to_json(req: matcher.Requirement, result: matcher.QueryResult) -> dict:
    reports = []
    for r in result.reports:
        sig = r.module_match
        reports.append({
            "component": r.component,
            "verdict": r.verdict,
            "kind": None if sig.unmatched else sig.overall_kind,
            "score": r.score,
            "methodMap": {q: m.provided_method for q, m in sorted(sig.method_map.items())},
            "counterexample": list(r.counterexample) if r.counterexample is not None else None,
        })
    return {
        "version": 1,
        "requirement": req.iface.name,
        "recommendation": {"action": result.recommendation.action,
                           "component": result.recommendation.component},
        "reports": reports,
    }


@main.command()
@click.argument("name")
@click.pass_obj
def link(session: Session, name: str) -> None:
    """Validate a declared business-to-application linkage; exit 0 iff it holds."""
    catalog, _ = session.require_catalog()
    mapping = catalog.links.get(name)
    if mapping is None:
        _input_error(f"unknown link {name!r}")
    result = category.check_functor(mapping)
    if result.ok:
        click.echo(f"link {name}: PASS")
        return
    click.echo(f"link {name}: FAIL")
    for violation in result.violations:
        click.echo(f"  {violation}")
    sys.exit(1)


@main.group()
def index() -> None:
    """Build or inspect the compiled-index cache."""


@index.command(name="build")
@click.pass_obj
def index_build(session: Session) -> None:
    """Compile all component protocols and write the cache file."""
    catalog, model_ = session.require_catalog()
    compiled = repo.build_index(catalog, model_, session.state_limit)
    path = (repo.default_cache_path(catalog.path) if session.cache_path is None
            else Path(session.cache_path))
    try:
        repo.save_cache(compiled, path)
    except OSError as err:
        _input_error(f"cannot write cache {_display_path(str(path), session.base_dir)}: "
                     f"{err.strerror or err}")
    click.echo(f"indexed {len(compiled.entries)} component(s)")
    click.echo(f"hash: {compiled.source_hash}")
    click.echo(f"cache: {_display_path(str(path), session.base_dir)}")


@index.command(name="inspect")
@click.pass_obj
def index_inspect(session: Session) -> None:
    """Summarize an existing cache file."""
    if session.cache_path is not None:
        path = Path(session.cache_path)
    elif session.catalog_path is not None:
        path = repo.default_cache_path(session.catalog_path)
    else:
        _input_error("index inspect needs --cache PATH or --catalog PATH")
    try:
        compiled = repo.load_cache(path)
    except repo.CacheError as err:
        _input_error(str(err))
    click.echo(f"hash: {compiled.source_hash}")
    click.echo(f"components: {len(compiled.entries)}")
    if session.catalog_path is not None and Path(session.catalog_path).is_file():
        catalog, _, diags = repo.load(session.catalog_path, session.state_limit)
        if catalog is not None:
            fresh = catalog.source_hash == compiled.source_hash
            click.echo(f"freshness: {'fresh' if fresh else 'stale'}")
    for name in sorted(compiled.entries):
        entry = compiled.entries[name]
        provided_states = len(entry.provided_automaton.states)
        click.echo(f"  {name}: provided dfa {provided_states} state(s)")


if __name__ == "__main__":
    main()
