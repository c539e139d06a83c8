"""Command-line surface: check, arch, protocol, match, link, index.

Exit codes: 0 for success or a positive analysis verdict, 1 for a negative
analysis verdict (inclusion fails, no usable component, broken link), 2 for
usage or input errors, 3 for an internal error (reported on one stderr line),
130 when interrupted by Ctrl-C (reported as `error: interrupted`), and 141,
silently, when the reader of stdout closes it before the output ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import dsl, matcher, protocol, repo
from .diagnostics import Diagnostic, has_errors
from .records import replace
from .sigmatch import TypeLattice

STATE_LIMIT_ENV = "ARCHMATCH_STATE_LIMIT"
NEEDS_CATALOG = "this command needs a catalog (pass --catalog PATH)"


def _display_path(path: str, base: Path | None) -> str:
    p = Path(path)
    if base is not None and p.is_absolute():
        try:
            return str(p.relative_to(base.resolve()))
        except ValueError:
            return path
    return path


def _print_diagnostics(diagnostics: list[Diagnostic], base: Path | None) -> None:
    for d in sorted(diagnostics, key=lambda d: (d.path, d.span.offset, d.message)):
        where = _display_path(d.path, base) if d.path else "<input>"
        print(f"{where}:{d.span}: {d.severity}: {d.message} [{d.code}]", file=sys.stderr)


def _input_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


class Session:
    def __init__(self, catalog_path: str | None, cache_path: str | None, quiet: bool,
                 state_limit: int):
        self.catalog_path = catalog_path
        self.cache_path = cache_path
        self.quiet = quiet
        self.state_limit = state_limit

    @property
    def base_dir(self) -> Path | None:
        return Path(self.catalog_path).parent if self.catalog_path else None

    def note(self, message: str) -> None:
        if not self.quiet:
            print(message, file=sys.stderr)

    def require_catalog(self, units: repo.Units | None = None) -> tuple[repo.Catalog, object]:
        """The catalog and its model, loaded from its `units` if they are given."""
        if self.catalog_path is None:
            _input_error(NEEDS_CATALOG)
        catalog, model_, diagnostics = repo.load(self.catalog_path, self.state_limit, units)
        _print_diagnostics(diagnostics, self.base_dir)
        if catalog is None:
            sys.exit(2)
        return catalog, model_


def _analyze_units(session: Session, paths: list[str], base: Path | None):
    """The model of the unit files at `paths`, analyzed; prints the
    diagnostics, paths relative to `base`, and exits 2 on an error."""
    _, trees, diagnostics = repo.parse_units(repo.Units("", paths))
    model_ = None
    if not has_errors(diagnostics):
        model_, _, _, analysis_diags = repo.analyze(trees, session.state_limit)
        diagnostics += analysis_diags
    _print_diagnostics(diagnostics, base)
    if model_ is None:  # analyze gives a model iff there is no error
        sys.exit(2)
    return model_


def check(session: Session, paths: list[str]) -> None:
    """Parse and resolve ADL units; exit 0 iff there are no errors."""
    _analyze_units(session, paths, session.base_dir)  # every unit was read, or it exited
    session.note(f"checked {len(paths)} unit(s): ok")


def arch(session: Session, name: str | None, closure: bool, run_check: bool) -> None:
    """Print the objects and morphisms of the catalog's architectures."""
    from . import category
    catalog, _ = session.require_catalog()
    if name is not None and name not in catalog.architectures:
        _input_error(f"unknown architecture {name!r}")
    names = [name] if name else sorted(catalog.architectures)
    for arch_name in names:
        cat = category.close(catalog.architectures[arch_name])
        print(f"architecture {cat.kind} {arch_name}")
        for obj in sorted(cat.objects):
            print(f"  object {obj}")
        declared = [m for m in cat.sorted_morphisms() if not m.derived]
        derived = [m for m in cat.sorted_morphisms() if m.derived]
        for m in declared:
            print(f"  morphism {m.render()}")
        if closure:
            for m in derived:
                print(f"  morphism {m.render()} (derived)")
            print(f"  {len(declared)} declared, {len(derived)} derived")
        else:
            print(f"  {len(declared)} declared")
        if run_check:
            for d in category.check_category(cat):
                print(f"  {d.severity}: {d.message}")


def _protocol_source(session: Session, target: str, unit: str | None):
    """The protocol named by `target`, or `target` read as an expression, compiled."""
    if any(c in target for c in "?()*+|; "):
        expr, diags = dsl.parse_protocol(target)
        if expr is None:
            _print_diagnostics(diags, None)
            sys.exit(2)
        return protocol.compile(expr)
    if unit is not None:
        model_ = _analyze_units(session, [unit], None)
    else:
        _, model_ = session.require_catalog()
    publication = model_.publications.get(target)
    if publication is not None:
        return protocol.compile(publication.provided.traces,
                                alphabet=publication.provided.iface.method_names())
    component = model_.components.get(target)
    contract = component.provided.base if component is not None else model_.contracts.get(target)
    if contract is not None:
        alphabet = contract.iface.method_names()
        expr = contract.prot if contract.prot is not None else protocol.universal_expr(alphabet)
        return protocol.compile(expr, alphabet=alphabet)
    _input_error(f"unknown contract, publication, or component {target!r}")


def protocol_cmd(session: Session, target: str, emit_dfa: bool, sample: int | None,
                 unit: str | None) -> None:
    """Compile a protocol to a DFA, or enumerate its accepted traces.

    NAME_OR_EXPR is a declared contract/publication/component name, or a
    literal protocol expression such as "(?a + ?b)*".
    """
    if emit_dfa and sample is not None:
        _input_error("--emit-dfa and --sample are mutually exclusive")
    if sample is not None and sample < 0:
        _input_error("--sample must be >= 0")
    auto = _protocol_source(session, target, unit)
    dfa = protocol.minimize(protocol.determinize(auto, session.state_limit))
    if sample is not None:
        for trace in protocol.sample_traces(dfa, sample):
            print(" ".join(trace) if trace else "(empty)")
    else:
        print(protocol.emit_dfa_text(dfa), end="")


def match(session: Session, requirement: str, output_format: str) -> None:
    """Match a requirement against the repository; exit 0 on USE/ADAPT, 1 on NEW."""
    if session.catalog_path is None:
        _input_error(NEEDS_CATALOG)
    req, merged, index, origin, reason, diagnostics = repo.load_match(
        session.catalog_path, requirement, session.cache_path, session.state_limit)
    _print_diagnostics(diagnostics, session.base_dir)
    if req is None:
        sys.exit(2)
    note = f"index: {origin} ({index.size()} component(s)"
    if reason is not None:  # a CacheError message names the cache itself
        note += f"; cache {reason}" if reason.startswith(("missing", "stale")) else f"; {reason}"
    session.note(note + ")")
    lattice = TypeLattice.from_types(merged.types)
    result = matcher.match_requirement(req, index, lattice, state_limit=session.state_limit)
    if output_format == "json":
        print(json.dumps(_result_to_json(req, result), indent=2))
    else:
        print(result.recommendation.render())
        for report in result.reports:
            print("")
            print(matcher.explain(report))
    sys.exit(0 if result.recommendation.action in (matcher.USE, matcher.ADAPT) else 1)


def _result_to_json(req: matcher.Requirement, result: matcher.QueryResult) -> dict:
    reports = []
    for r in result.reports:
        sig = r.module_match
        reports.append({
            "component": r.component,
            "verdict": r.verdict,
            "kind": None if sig.unmatched else sig.overall_kind,
            "methodMap": {q: m.provided_method for q, m in sorted(sig.method_map.items())},
            "unmatched": list(sig.unmatched),
            "nameMatches": sig.name_matches(),
            "protocolVerdict": r.protocol_verdict,
            "counterexample": list(r.counterexample) if r.counterexample is not None else None,
        })
    return {
        "version": 2,
        "requirement": req.iface.name,
        "recommendation": {"action": result.recommendation.action,
                           "component": result.recommendation.component},
        "reports": reports,
    }


def link(session: Session, name: str) -> None:
    """Validate a declared business-to-application linkage; exit 0 iff it holds."""
    from . import category
    catalog, _ = session.require_catalog()
    mapping = catalog.links.get(name)
    if mapping is None:
        _input_error(f"unknown link {name!r}")
    result = category.check_functor(replace(mapping, source=category.close(mapping.source),
                                            target=category.close(mapping.target)))
    if result.ok:
        print(f"link {name}: PASS")
        return
    print(f"link {name}: FAIL")
    for violation in result.violations:
        print(f"  {violation}")
    sys.exit(1)


def _units(catalog_path: str | None) -> repo.Units | None:
    """The units of the catalog at `catalog_path`, stat-ed, or None when there
    is no catalog or it is no readable file (a FIFO is never opened)."""
    if not catalog_path or not os.path.isfile(catalog_path):
        return None
    try:
        return repo.Units.listed(catalog_path, Path(catalog_path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError):
        return None


def index_build(session: Session) -> None:
    """Compile all component protocols and write the cache file."""
    units = _units(session.catalog_path)  # stat-ed before they are read, for their records
    catalog, model_ = session.require_catalog(units)
    compiled = repo.build_index(catalog, model_, session.state_limit, units)
    path = (repo.default_cache_path(catalog.path) if session.cache_path is None
            else Path(session.cache_path))
    try:
        repo.save_cache(compiled, path)
    except OSError as err:
        _input_error(f"cannot write cache {_display_path(str(path), session.base_dir)}: "
                     f"{err.strerror or err}")
    print(f"indexed {len(compiled.entries)} component(s)")
    print(f"hash: {compiled.source_hash}")
    print(f"cache: {_display_path(str(path), session.base_dir)}")


def index_inspect(session: Session) -> None:
    """Summarize an existing cache file."""
    if session.cache_path is not None:
        path = Path(session.cache_path)
    elif session.catalog_path is not None:
        path = repo.default_cache_path(session.catalog_path)
    else:
        _input_error("index inspect needs --cache PATH or --catalog PATH")
    units = _units(session.catalog_path)  # freshness is shown only when the units can be read
    try:
        compiled, fresh = repo.load_cache(path, units)  # as `match` judges it
        repo.reach(compiled)
    except repo.CacheError as err:
        _input_error(str(err))
    print(f"hash: {compiled.source_hash}")
    print(f"components: {len(compiled.entries)}")
    if units is not None and units.stats is not None:  # every unit is a file
        print(f"freshness: {'fresh' if fresh else 'stale'}")
    for name, entry in sorted(compiled.entries.items()):
        print(f"  {name}: provided dfa {len(entry.provided_automaton.states)} state(s)")


def _parser(prog: str) -> argparse.ArgumentParser:
    """The command line; each command's parser sets `run` to its function."""
    def command(commands, name: str, run) -> argparse.ArgumentParser:
        parser = commands.add_parser(name, help=run.__doc__.splitlines()[0],
                                     description=run.__doc__, allow_abbrev=False)
        parser.set_defaults(run=run)
        return parser

    parser = argparse.ArgumentParser(
        prog=prog, description="Architecture repository analysis and component matching.",
        allow_abbrev=False)
    parser.add_argument("--catalog", dest="catalog_path", metavar="PATH",
                        help="Catalog file listing the repository's ADL units.")
    parser.add_argument("--cache", dest="cache_path", metavar="PATH",
                        help="Compiled-index cache file (default: <catalog>.idx).")
    parser.add_argument("--quiet", action="store_true", help="Suppress progress notes.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    command(commands, "check", check).add_argument("paths", nargs="+", metavar="UNIT")
    arch_parser = command(commands, "arch", arch)
    arch_parser.add_argument("name", nargs="?", metavar="NAME")
    arch_parser.add_argument("--closure", action="store_true",
                             help="List derived morphisms as well.")
    arch_parser.add_argument("--check", dest="run_check", action="store_true",
                             help="Report category diagnostics.")
    protocol_parser = command(commands, "protocol", protocol_cmd)
    protocol_parser.add_argument("target", metavar="NAME_OR_EXPR")
    protocol_parser.add_argument(
        "--emit-dfa", action="store_true",
        help="Emit the minimal DFA in the textual transition-list format (default).")
    protocol_parser.add_argument("--sample", type=int, metavar="N",
                                 help="List all accepted traces of length <= N instead.")
    protocol_parser.add_argument("--unit", metavar="FILE",
                                 help="Resolve NAME in this unit file instead of the catalog.")
    match_parser = command(commands, "match", match)
    match_parser.add_argument("requirement", metavar="REQUIREMENT_FILE")
    match_parser.add_argument("--format", dest="output_format", choices=["text", "json"],
                              default="text", help="Report format (default text).")
    command(commands, "link", link).add_argument("name", metavar="NAME")
    index_doc = "Build or inspect the compiled-index cache."
    index_commands = commands.add_parser(
        "index", help=index_doc, description=index_doc, allow_abbrev=False,
    ).add_subparsers(metavar="COMMAND", required=True)
    command(index_commands, "build", index_build)
    command(index_commands, "inspect", index_inspect)
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line (default `sys.argv[1:]`); exit code 0 unless it raises SystemExit.

    The cyclic garbage collector is paused for the command, which builds no
    cycles worth collecting, and left as the caller had it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            options = vars(_parser(prog_name or "archmatch").parse_args(args))
            run = options.pop("run")
            state_limit = protocol.DEFAULT_STATE_LIMIT
            raw = os.environ.get(STATE_LIMIT_ENV)
            if raw is not None:
                try:
                    state_limit = int(raw)
                    if state_limit <= 0:
                        raise ValueError
                except ValueError:
                    _input_error(f"{STATE_LIMIT_ENV} must be a positive integer, got {raw!r}")
            session = Session(options.pop("catalog_path"), options.pop("cache_path"),
                              options.pop("quiet"), state_limit)
            run(session, **options)
        finally:  # output left in the buffer fails here, not in the interpreter's last flush
            sys.stdout.flush()
    except protocol.ProtocolTooLarge as err:
        _input_error(str(err))
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        sys.exit(130)
    except BrokenPipeError:  # the reader closed stdout: exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the last flush
        sys.exit(141)
    except Exception as err:  # exit code 1 is a negative verdict, so a crash exits 3
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(3)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    main()
