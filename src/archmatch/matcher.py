"""The two-level matching pipeline.

A requirement (a business interface plus an optional call protocol) is run
against every indexed component: a signature-shape prefilter, then signature
matching, then trace inclusion of the requirement protocol, relabeled through
the signature map, in the component's provided protocol.  Components are
classified USE / adaptation candidate / no match and ranked by verdict, then
by signature map (more matched methods first, then the stronger weakest-link
kind, then more verbatim names), then by component name.
"""

from __future__ import annotations

from functools import cache

from . import protocol, sigmatch
from .model import Interface
from .protocol import FiniteAutomaton, ProtocolExpr
from .records import record
from .sigmatch import ModuleMatch, TypeLattice, shape

HOLDS = "HOLDS"
FAILS = "FAILS"
NOT_CHECKED = "NOT_CHECKED"

USE = "USE"
ADAPT_CANDIDATE = "ADAPT_CANDIDATE"
NO_MATCH = "NO_MATCH"

NEW = "NEW"
ADAPT = "ADAPT"

_VERDICT_RANK = {USE: 0, ADAPT_CANDIDATE: 1, NO_MATCH: 2}

#: coverage needed for a partial signature match to stay an adaptation candidate
ADAPT_COVERAGE_THRESHOLD = 0.5

@record(frozen=True)
class Requirement:
    """A new business interface to satisfy, with an optional call protocol."""

    iface: Interface
    required_protocol: ProtocolExpr | None = None


@record(frozen=True)
class MatchReport:
    component: str
    module_match: ModuleMatch  # its `unmatched` is empty for a full signature match
    protocol_verdict: str  # HOLDS / FAILS / NOT_CHECKED
    counterexample: tuple[str, ...] | None
    verdict: str  # USE / ADAPT_CANDIDATE / NO_MATCH

    def sort_key(self):
        sig = self.module_match
        return (_VERDICT_RANK[self.verdict], -len(sig.method_map),
                -sigmatch.strength(sig.overall_kind), -sig.name_matches(), self.component)

    score = property(sort_key)  # the name under which perfbench/tests compares reports


@record(frozen=True)
class Recommendation:
    action: str  # USE / ADAPT / NEW
    component: str | None = None

    def render(self) -> str:
        return f"{self.action} {self.component}" if self.component else self.action


@record(frozen=True)
class QueryResult:
    reports: tuple[MatchReport, ...]
    recommendation: Recommendation


def prefilter(requirement: Requirement, entries, lattice: TypeLattice,
              enabled: bool = True) -> list:
    """Keep, in component order, the entries providing a method of the same
    signature shape (`sigmatch.shape`, memoised in the lattice) as some
    requirement method.

    Every match kind preserves shapes, so no requirement method can match a
    method of a dropped entry: the filter drops only NO_MATCH reports and
    never changes a verdict.  A requirement without methods (or a disabled
    filter) keeps everything.
    """
    entries = sorted(entries, key=lambda e: e.component)
    wanted = {shape(m, lattice) for m in requirement.iface.all_methods()}
    if not enabled or not wanted:
        return entries
    shapes, kept = lattice.shapes, []  # `shape` fills its memo, read here inline
    for e in entries:
        for m in e.methods:
            if (shapes.get(m.types) or shape(m, lattice)) in wanted:
                kept.append(e)
                break
    return kept


def _match_one(requirement: Requirement, entry, lattice: TypeLattice, required_dfa,
               state_limit: int) -> MatchReport:
    sig = sigmatch.match_module(requirement.iface, entry, lattice)
    counterexample = None
    if sig.unmatched:
        if sig.coverage() < ADAPT_COVERAGE_THRESHOLD:
            return MatchReport(entry.component, sig, NOT_CHECKED, None, NO_MATCH)
        verdict, protocol_verdict = ADAPT_CANDIDATE, NOT_CHECKED
    elif requirement.required_protocol is None:
        verdict, protocol_verdict = USE, NOT_CHECKED
    else:
        mapping = {q: m.provided_method for q, m in sig.method_map.items()}
        required_auto = protocol.relabel(required_dfa(), mapping)
        try:
            result = protocol.includes(required_auto, entry.provided_automaton, state_limit)
        except protocol.ProtocolTooLarge as err:
            raise protocol.ProtocolTooLarge(f"component {entry.component!r}: {err}") from err
        verdict, protocol_verdict = (USE, HOLDS) if result.holds else (ADAPT_CANDIDATE, FAILS)
        counterexample = result.counterexample
    return MatchReport(entry.component, sig, protocol_verdict, counterexample, verdict)


def match_requirement(requirement: Requirement, index, lattice: TypeLattice, *,
                      use_prefilter: bool = True,
                      state_limit: int = protocol.DEFAULT_STATE_LIMIT) -> QueryResult:
    """Run the full pipeline against a compiled index.

    `index` is a repo.CompiledIndex (anything with an `entries` mapping of
    component name to index entries works).  Reports are ranked by verdict,
    then by signature map (more matched methods first, then the stronger
    weakest-link kind, then more verbatim names), then by component name, so
    identical inputs give identical output.
    """
    candidates = prefilter(requirement, index.entries.values(), lattice, use_prefilter)

    @cache
    def required_dfa() -> FiniteAutomaton:
        # compiled at the first full signature match, then relabeled per candidate
        return protocol.determinize(protocol.compile(requirement.required_protocol),
                                    state_limit)

    reports = [_match_one(requirement, entry, lattice, required_dfa, state_limit)
               for entry in candidates]
    reports.sort(key=MatchReport.sort_key)
    if reports and reports[0].verdict == USE:
        recommendation = Recommendation(USE, reports[0].component)
    elif reports and reports[0].verdict == ADAPT_CANDIDATE:
        recommendation = Recommendation(ADAPT, reports[0].component)
    else:
        recommendation = Recommendation(NEW)
    return QueryResult(tuple(reports), recommendation)


def explain(report: MatchReport) -> str:
    """A human-readable narrative for one match report."""
    sig = report.module_match
    kind = "" if sig.unmatched else f"{sig.overall_kind}; "
    lines = [f"component {report.component}: {report.verdict} ({kind}{len(sig.method_map)} of "
             f"{len(sig.method_map) + len(sig.unmatched)} methods, {sig.name_matches()} same names)"]
    if not sig.unmatched:
        lines.append("  method map:")
    elif sig.method_map:
        lines.append("  partial method map:")
    for q, m in sorted(sig.method_map.items()):
        perm = ""
        if m.kind == sigmatch.PERMUTED and not sig.unmatched:
            perm = f" via parameter order {list(m.param_permutation)}"
        lines.append(f"    {q} -> {m.provided_method} [{m.kind}{perm}]")
    lines.append(f"  protocol: {report.protocol_verdict}")
    if report.counterexample is not None:
        calls = " ".join(report.counterexample) if report.counterexample else "(empty trace)"
        lines.append(f"  call sequence the provider does not allow: {calls}")
    if report.verdict == USE:
        lines.append("  signature and protocol requirements are met; "
                     "component can be plugged in")
    else:
        if sig.unmatched:
            lines.append(f"  unmatched requirement methods: {', '.join(sig.unmatched)}")
        lines.append("  near match; consider adapting this component"
                     if report.verdict == ADAPT_CANDIDATE
                     else "  not a viable provider for this requirement")
    return "\n".join(lines)
