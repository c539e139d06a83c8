"""Lexer, parser, and formatter tests, including the round-trip law."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archmatch import dsl, model
from archmatch.diagnostics import Span
from archmatch.dsl import SourceUnit, syntax
from archmatch.dsl.tokens import EOF, ERROR, IDENT, STRING, tokenize
from archmatch.protocol import Alt, Eps, Ev, Seq, Shuffle, Star, chain

from oracles import random_expr

PORTFOLIO_ADL = """\
type String;
type Account;

interface ManagePortfolio {
  createPortfolio(portfolioName: String);
  deletePortfolio(portfolioName: String);
  addAccount(account: Account, portfolioName: String);
  deleteAccount(account: Account, portfolioName: String);
  transferAccount(account: Account, fromPortfolio: String, toPortfolio: String);
}
"""

DOCUMENTS_ADL = """\
type String;

interface ManageDocuments {
  viewDocument(documentId: String);
  searchDocuments(params: String);
  setPreference(documentType: String, preference: String);
}
"""


def parse_ok(text, path="test.adl"):
    tree, diags = dsl.parse_unit(SourceUnit(path, text))
    assert tree is not None, diags
    return tree


# --- tokenize ----------------------------------------------------------------

def test_tokenize_smallest_interface():
    toks = tokenize(SourceUnit("t", "interface ManageDocuments { }"))
    assert [t.kind for t in toks] == ["interface", IDENT, "{", "}", EOF]


def test_tokenize_document_listing():
    toks = tokenize(SourceUnit("t", DOCUMENTS_ADL))
    idents = {t.text for t in toks if t.kind == IDENT}
    assert {"viewDocument", "searchDocuments", "setPreference"} <= idents


def test_tokenize_unknown_characters_form_one_error_token():
    toks = tokenize(SourceUnit("t", "@@@"))
    assert [t.kind for t in toks] == [ERROR, EOF]
    assert toks[0].span.length == 3


def test_tokenize_comments_and_arrows():
    toks = tokenize(SourceUnit("t", "map A -> B; // note\n-ext->"))
    kinds = [t.kind for t in toks]
    assert kinds == ["map", IDENT, "->", IDENT, ";", "-", IDENT, "->", EOF]


def test_tokenize_spans_are_ordered_and_in_bounds():
    rng = random.Random(3)
    for _ in range(50):
        text = "".join(rng.choice(string.printable) for _ in range(rng.randint(0, 80)))
        toks = tokenize(SourceUnit("t", text))
        last_end = 0
        for t in toks:
            assert 0 <= t.span.offset <= len(text)
            assert t.span.offset + t.span.length <= len(text)
            assert t.span.offset >= last_end
            last_end = t.span.offset + t.span.length


def test_tokenize_backslash_does_not_escape_a_newline():
    text = 'type T;\ninterface I {\n  m() [guard: "a\\\nb"];\n  n(x: Nope);\n}\n'
    toks = tokenize(SourceUnit("t", text))
    bad = next(t for t in toks if t.kind == ERROR)
    assert (bad.text, str(bad.span)) == ('"a\\', "3:15")
    nope = next(t for t in toks if t.text == "Nope")
    assert str(nope.span) == "5:8"


def test_tokenize_line_and_column_agree_with_offset():
    rng = random.Random(5)
    for _ in range(300):
        text = "".join(rng.choice('ab "\\\n/;') for _ in range(rng.randint(0, 40)))
        for t in tokenize(SourceUnit("t", text)):
            before = text[:t.span.offset]
            assert (t.span.line, t.span.column) == \
                (before.count("\n") + 1, len(before) - before.rfind("\n")), (text, t)


# Each input's tokens as (kind, text, line:col, value), EOF last.
LEXER_TABLE = [
    ('"a\\"b', [(ERROR, '"a\\"b', "1:1", ""), (EOF, "", "1:6", "")]),
    ('"a\\\\"b', [(STRING, '"a\\\\"', "1:1", "a\\"), (IDENT, "b", "1:6", ""),
                   (EOF, "", "1:7", "")]),
    ('"a\\', [(ERROR, '"a\\', "1:1", ""), (EOF, "", "1:4", "")]),
    ('"a\\\nb', [(ERROR, '"a\\', "1:1", ""), (IDENT, "b", "2:1", ""), (EOF, "", "2:2", "")]),
    ('"x\\qy" "\\t\\n\\""', [(STRING, '"x\\qy"', "1:1", "xqy"),
                             (STRING, '"\\t\\n\\""', "1:8", '\t\n"'), (EOF, "", "1:16", "")]),
    ("a/b<c", [(IDENT, "a", "1:1", ""), (ERROR, "/", "1:2", ""), (IDENT, "b", "1:3", ""),
               (ERROR, "<", "1:4", ""), (IDENT, "c", "1:5", ""), (EOF, "", "1:6", "")]),
    ("<<:/// c\n<:", [(ERROR, "<", "1:1", ""), ("<:", "<:", "1:2", ""), ("<:", "<:", "2:1", ""),
                     (EOF, "", "2:3", "")]),
    ("9//c\n@<:", [(ERROR, "9", "1:1", ""), (ERROR, "@", "2:1", ""), ("<:", "<:", "2:2", ""),
                   (EOF, "", "2:4", "")]),
    ("- -> -->", [("-", "-", "1:1", ""), ("->", "->", "1:3", ""), ("-", "-", "1:6", ""),
                  ("->", "->", "1:7", ""), (EOF, "", "1:9", "")]),
    ("x 9\u00e9@/ y9\u00e9", [(IDENT, "x", "1:1", ""), (ERROR, "9\u00e9@/", "1:3", ""),
                           (IDENT, "y9", "1:8", ""), (ERROR, "\u00e9", "1:10", ""),
                           (EOF, "", "1:11", "")]),
    ("\r a\tb\r\n\tc", [(IDENT, "a", "1:3", ""), (IDENT, "b", "1:5", ""), (IDENT, "c", "2:2", ""),
                       (EOF, "", "2:3", "")]),
    ("a//b", [(IDENT, "a", "1:1", ""), (EOF, "", "1:5", "")]),
]


@pytest.mark.parametrize("text,expected", LEXER_TABLE)
def test_tokenize_exact_tokens(text, expected):
    toks = tokenize(SourceUnit("t", text))
    assert [(t.kind, t.text, str(t.span), t.value) for t in toks] == expected
    assert all(text[t.span.offset:t.span.offset + t.span.length] == t.text for t in toks)


# characters that start no token on their own, and text between tokens
_NO_TOKEN = re.compile(r'[^ \t\r\n"A-Za-z_{}()\[\]:;,*+|?-]+')
_BLANK = re.compile(r"(?:[ \t\r\n]|//[^\n]*)*")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet='ab_Z9 \t\r\n"\\/<-:{}()[];,*+|?\u00e9', max_size=40))
def test_tokenize_partitions_text_into_tokens_and_blanks(text):
    toks = tokenize(SourceUnit("t", text))
    assert toks[-1].kind == EOF and toks[-1].span.offset == len(text)
    end = 0
    for t in toks:
        gap = text[end:t.span.offset]
        assert _BLANK.fullmatch(gap), (text, t)
        if "//" in gap.rpartition("\n")[2]:  # a comment runs to the end of its line
            assert t.kind == EOF
        assert text[t.span.offset:t.span.offset + t.span.length] == t.text
        end = t.span.offset + t.span.length
    for t in toks[:-1]:
        if t.kind != ERROR:
            continue
        follow = text[t.span.offset + t.span.length:]
        if t.text.startswith('"'):  # an unterminated string runs to the end of its line
            assert "\n" not in t.text and follow[:1] in ("", "\n")
            continue
        assert _NO_TOKEN.fullmatch(t.text), (text, t)
        assert "//" not in t.text + follow[:1] and "<:" not in t.text + follow[:1], (text, t)
        # maximal: what follows starts a token, a blank, or a comment
        assert not _NO_TOKEN.match(follow) or follow.startswith(("//", "<:")), (text, t)


# --- parse_unit ---------------------------------------------------------------

def test_parse_portfolio_listing():
    tree = parse_ok(PORTFOLIO_ADL)
    ifaces = [d for d in tree.declarations if isinstance(d, syntax.InterfaceDecl)]
    assert len(ifaces) == 1
    assert len(ifaces[0].methods) == 5


def test_parse_empty_unit():
    tree = parse_ok("")
    assert tree.declarations == ()


def test_parse_unclosed_block():
    tree, diags = dsl.parse_unit(SourceUnit("t", "interface X {"))
    assert tree is None
    assert len(diags) == 1
    assert diags[0].code == "unclosed-block"
    assert "unclosed block" in diags[0].message


def test_parse_recovers_after_bad_declaration():
    text = "interface Bad {{}\n\ntype Good;\n"
    tree, diags = dsl.parse_unit(SourceUnit("t", text))
    assert tree is None
    assert any(d.severity == "error" for d in diags)


def test_parse_contract_component_publication():
    text = """\
type String;

interface Door {
  open(code: String): String [guard: "locked" design: "opens"];
}

contract DoorCtr implements Door {
  incomplete;
  init { "locked := true" }
  method open(code: String): String [guard: "locked"];
  protocol { ?open* }
}

component DoorUnit {
  provided contract DoorCtr
  causal { ?open* }
}

publication DoorPub {
  provided contract DoorCtr
}
"""
    tree = parse_ok(text)
    kinds = [type(d).__name__ for d in tree.declarations]
    assert kinds == ["TypeDecl", "InterfaceDecl", "ContractDecl", "ComponentDecl",
                     "PublicationDecl"]
    contract = tree.declarations[2]
    assert contract.incomplete
    assert contract.init == "locked := true"
    assert contract.protocol == Star(Ev("open"))


def test_parse_architecture_and_link():
    text = """\
architecture business Front {
  object A;
  object B;
  morphism A -ext-> B;
}

link L from Front to Back {
  map A -> C;
  generator ext -> use;
}
"""
    tree = parse_ok(text)
    arch, link = tree.declarations
    assert arch.kind == "business"
    assert arch.morphisms[0] == syntax.MorphismDecl("A", "ext", "B", arch.morphisms[0].span)
    assert link.object_map[0].dst == "C"
    assert link.generator_map[0] == syntax.GeneratorEntry("ext", "use",
                                                          link.generator_map[0].span)


def test_parse_never_raises_on_garbage():
    rng = random.Random(5)
    for _ in range(200):
        text = "".join(rng.choice(string.printable) for _ in range(rng.randint(0, 120)))
        tree, diags = dsl.parse_unit(SourceUnit("junk", text))
        for d in diags:
            assert 0 <= d.span.offset <= len(text)
            assert d.span.offset + d.span.length <= len(text)


# --- parse_protocol -----------------------------------------------------------

def test_parse_protocol_star_of_alternative():
    expr, diags = dsl.parse_protocol("(?searchDocument + ?setPreference)*")
    assert expr == Star(Alt(Ev("searchDocument"), Ev("setPreference")))
    assert diags == []


def test_parse_protocol_single_event():
    expr, _ = dsl.parse_protocol("?m")
    assert expr == Ev("m")


def test_parse_protocol_sequence_right_associated():
    expr, _ = dsl.parse_protocol("?a ; ?b ; ?c")
    assert expr == Seq(Ev("a"), Seq(Ev("b"), Ev("c")))
    juxta, _ = dsl.parse_protocol("?a ?b ?c")
    assert juxta == expr


def test_parse_protocol_precedence():
    expr, _ = dsl.parse_protocol("?a+?b;?c*")
    assert expr == Alt(Ev("a"), Seq(Ev("b"), Star(Ev("c"))))
    shuffled, _ = dsl.parse_protocol("?a | ?b + ?c")
    assert shuffled == Shuffle(Ev("a"), Alt(Ev("b"), Ev("c")))


def test_parse_protocol_malformed():
    expr, diags = dsl.parse_protocol("?a + ")
    assert expr is None
    assert diags[0].severity == "error"
    expr, diags = dsl.parse_protocol("(?a")
    assert expr is None


def test_parse_protocol_empty_is_epsilon():
    expr, _ = dsl.parse_protocol("")
    assert expr == Eps()
    expr, _ = dsl.parse_protocol("()")
    assert expr == Eps()


_EXPECTED_EVENT = 'expected event "?name" or "(", found '

# Each malformed protocol with the one diagnostic it gets, or a tree it parses to:
# (line:column, length, message, code) of a standalone protocol or of a unit.
PROTOCOL_TABLE = [
    ("?", ("1:2", 0, "expected event name, found 'end of file'", "unexpected-token")),
    ("(?a", ("1:4", 0, "expected \")\", found 'end of file'", "unexpected-token")),
    ("?a)", ("1:3", 1, "unexpected ')' after protocol expression", "unexpected-token")),
    ("?a ;", ("1:5", 0, _EXPECTED_EVENT + "'end of file'", "unexpected-token")),
    ("| ?a", ("1:1", 1, _EXPECTED_EVENT + "'|'", "unexpected-token")),
    ("?a **", Star(Star(Ev("a")))),
    ("?a + + ?b", ("1:6", 1, _EXPECTED_EVENT + "'+'", "unexpected-token")),
    ("(", ("1:2", 0, _EXPECTED_EVENT + "'end of file'", "unexpected-token")),
    (")", ("1:1", 1, _EXPECTED_EVENT + "')'", "unexpected-token")),
    ("*", ("1:1", 1, _EXPECTED_EVENT + "'*'", "unexpected-token")),
    ("?a |", ("1:5", 0, _EXPECTED_EVENT + "'end of file'", "unexpected-token")),
    ("?a ;; ?b", ("1:5", 1, _EXPECTED_EVENT + "';'", "unexpected-token")),
    ("((?a)", ("1:6", 0, "expected \")\", found 'end of file'", "unexpected-token")),
    ("?a (?b", ("1:7", 0, "expected \")\", found 'end of file'", "unexpected-token")),
    ("?1", ("1:2", 1, "expected event name, found '1'", "unexpected-token")),
    ("? protocol", ("1:3", 8, "expected event name, found 'protocol'", "unexpected-token")),
    ("?a ; )", ("1:6", 1, _EXPECTED_EVENT + "')'", "unexpected-token")),
    ("()*", Star(Eps())),
    ("?a ?b | ?c + ()", Shuffle(Seq(Ev("a"), Ev("b")), Alt(Ev("c"), Eps()))),
]

UNIT_PROTOCOL_TABLE = [
    ("contract C implements I {\n  protocol { ?a",
     ("2:16", 0, 'unclosed block: expected "}" before end of file', "unclosed-block")),
    ("contract C implements I { protocol { ?a + } }",
     ("1:43", 1, _EXPECTED_EVENT + "'}'", "unexpected-token")),
    ("contract C implements I { protocol { (?a } }",
     ("1:42", 1, "expected \")\", found '}'", "unexpected-token")),
    ("contract C implements I { protocol { (?a",
     ("1:41", 0, 'unclosed block: expected ")" before end of file', "unclosed-block")),
    ("contract C implements I { protocol {",
     ("1:37", 0, 'unclosed block: expected "(" before end of file', "unclosed-block")),
    ("component K { provided contract C causal { ?a | } }",
     ("1:49", 1, _EXPECTED_EVENT + "'}'", "unexpected-token")),
    ("contract C implements I { protocol { ?a } ?b }",
     ("1:43", 1, "expected \"}\", found '?'", "unexpected-token")),
]


def _diagnostic_row(d):
    return str(d.span), d.span.length, d.message, d.code


@pytest.mark.parametrize("text,expected", PROTOCOL_TABLE)
def test_parse_protocol_table(text, expected):
    expr, diags = dsl.parse_protocol(text)
    if isinstance(expected, tuple):
        assert expr is None
        assert [_diagnostic_row(d) for d in diags] == [expected]
    else:
        assert (expr, diags) == (expected, [])


@pytest.mark.parametrize("text,expected", UNIT_PROTOCOL_TABLE)
def test_parse_unit_protocol_table(text, expected):
    tree, diags = dsl.parse_unit(SourceUnit("u.adl", text))
    assert tree is None
    assert [_diagnostic_row(d) for d in diags] == [expected]


_PROTOCOL_EXPRS = st.recursive(
    st.one_of(st.just(Eps()), st.sampled_from("abc").map(Ev)),
    lambda inner: st.one_of(
        inner.map(Star),
        *(st.tuples(inner, inner).map(lambda pair, cls=cls: cls(*pair))
          for cls in (Seq, Alt, Shuffle))),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_PROTOCOL_EXPRS)
def test_parse_protocol_inverts_format_protocol(expr):
    assert dsl.parse_protocol(dsl.format_protocol(expr)) == (expr, [])


@pytest.mark.parametrize("cls", [Seq, Alt, Shuffle])
def test_deep_chains_round_trip(cls):
    # trees this deep are compared by their text: dataclass == would recurse
    events = [Ev(f"e{i}") for i in range(2000)]
    left_nested = events[0]
    for e in events[1:]:
        left_nested = cls(left_nested, e)
    for expr in (chain(cls, events), left_nested):
        text = dsl.format_protocol(expr)
        again, diags = dsl.parse_protocol(text)
        assert diags == []
        assert dsl.format_protocol(again) == text


# --- format -------------------------------------------------------------------

def test_format_round_trip_on_listing():
    tree = parse_ok(DOCUMENTS_ADL)
    again = parse_ok(dsl.format(tree))
    assert again == tree


def test_format_empty_tree():
    assert dsl.format(syntax.SyntaxTree(())) == ""


def _random_ident(rng):
    return rng.choice(["alpha", "beta", "Gamma", "deltaX", "x", "Account", "doThing"]) + \
        str(rng.randint(0, 99))


def _random_string(rng):
    pool = 'abc "quoted" back\\slash\nnewline\ttab xyz'
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))


def _random_method(rng):
    params = tuple(
        syntax.ParamDecl(f"p{i}", _random_ident(rng), None)
        for i in range(rng.randint(0, 3)))
    annot = None
    if rng.random() < 0.4:
        annot = syntax.Annot(
            guard=_random_string(rng) if rng.random() < 0.5 else None,
            pre=_random_string(rng) if rng.random() < 0.3 else None,
            post=_random_string(rng) if rng.random() < 0.3 else None,
            design=_random_string(rng) if rng.random() < 0.5 else None,
        )
        if annot.empty():
            annot = None
    ret = _random_ident(rng) if rng.random() < 0.5 else None
    return syntax.MethodDecl(_random_ident(rng), params, ret, annot, None)


def _random_declaration(rng):
    roll = rng.random()
    if roll < 0.2:
        return syntax.TypeDecl(_random_ident(rng),
                               _random_ident(rng) if rng.random() < 0.5 else None, None)
    if roll < 0.4:
        fields = tuple(syntax.FieldDecl(f"f{i}", _random_ident(rng), None)
                       for i in range(rng.randint(0, 2)))
        methods = tuple(_random_method(rng) for _ in range(rng.randint(0, 4)))
        return syntax.InterfaceDecl(_random_ident(rng),
                                    _random_ident(rng) if rng.random() < 0.3 else None,
                                    fields, methods, None)
    if roll < 0.6:
        proto = random_expr(rng, ["a", "b", "c"], 3) if rng.random() < 0.7 else None
        return syntax.ContractDecl(
            _random_ident(rng), _random_ident(rng), rng.random() < 0.3,
            _random_string(rng) if rng.random() < 0.5 else None,
            tuple(_random_method(rng) for _ in range(rng.randint(0, 3))),
            proto, None, None)
    if roll < 0.75:
        cls = syntax.ComponentDecl if rng.random() < 0.5 else syntax.PublicationDecl
        causal = random_expr(rng, ["a", "b"], 2) if rng.random() < 0.5 else None
        return cls(_random_ident(rng), _random_ident(rng),
                   _random_ident(rng) if rng.random() < 0.5 else None,
                   _random_ident(rng) if rng.random() < 0.5 else None,
                   causal, None, None)
    if roll < 0.9:
        objects = tuple(syntax.ObjectRef(f"O{i}", None) for i in range(rng.randint(0, 4)))
        morphisms = tuple(
            syntax.MorphismDecl(f"O{rng.randint(0, 3)}", rng.choice(["ext", "cmp", "use"]),
                                f"O{rng.randint(0, 3)}", None)
            for _ in range(rng.randint(0, 3)))
        return syntax.ArchitectureDecl(rng.choice(["business", "application"]),
                                       _random_ident(rng), objects, morphisms, None)
    maps = tuple(syntax.MapEntry(f"O{i}", f"C{i}", None) for i in range(rng.randint(0, 3)))
    gens = tuple(syntax.GeneratorEntry(s, d, None)
                 for s, d in rng.sample([("ext", "use"), ("cmp", "cmp")], rng.randint(0, 2)))
    return syntax.LinkDecl(_random_ident(rng), _random_ident(rng), _random_ident(rng),
                           maps, gens, None)


def test_format_round_trip_on_random_trees():
    rng = random.Random(17)
    for _ in range(150):
        tree = syntax.SyntaxTree(
            tuple(_random_declaration(rng) for _ in range(rng.randint(0, 5))))
        text = dsl.format(tree)
        tree2, diags = dsl.parse_unit(SourceUnit("gen.adl", text))
        assert tree2 is not None, (diags, text)
        assert tree2 == tree, text


_GAPS = [" ", "  ", "\n", "\t", "\r\n", " // note\n", "\n\n  "]


def _node_spans(node, found: list) -> list:
    """(record, span) for every record under `node` that has a span."""
    if isinstance(node, tuple):
        for item in node:
            _node_spans(item, found)
    elif hasattr(node, "__record_fields__"):
        for name in node.__record_fields__:
            value = getattr(node, name)
            if isinstance(value, Span):
                found.append((node, value))
            else:
                _node_spans(value, found)
    return found


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_spans_agree_with_offsets_and_run_between_tokens(rng):
    """Random ADL text: formatted random declarations, relaid with random
    blanks, comments and line breaks, and at times one token dropped or one
    stray character added."""
    tree = syntax.SyntaxTree(tuple(_random_declaration(rng) for _ in range(rng.randint(1, 4))))
    words = [t.text for t in tokenize(SourceUnit("t", dsl.format(tree)))[:-1]]
    if rng.random() < 0.5:
        words.insert(rng.randrange(len(words) + 1), rng.choice(["@", '"', "<"]))
    if rng.random() < 0.3:
        del words[rng.randrange(len(words))]
    text = "".join(word + rng.choice(_GAPS) for word in words)
    tokens = tokenize(SourceUnit("t", text))
    parsed, diagnostics = dsl.parse_unit(SourceUnit("t", text))
    if parsed is not None:
        diagnostics = diagnostics + model.resolve([parsed])[1]
    spans = [t.span for t in tokens] + [d.span for d in diagnostics]
    starts = {t.offset for t in tokens}
    ends = {t.offset + len(t.text) for t in tokens}
    for node, span in _node_spans(parsed.declarations if parsed else (), []):
        # a node's span runs from the start of its first token to the end of its last
        assert span.offset in starts and span.offset + span.length in ends, (text, node)
        spans.append(span)
    for span in spans:
        assert span.line == text.count("\n", 0, span.offset) + 1, (text, span)
        assert span.column == span.offset - text.rfind("\n", 0, span.offset), (text, span)

