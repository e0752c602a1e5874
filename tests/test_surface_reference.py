"""The parser against a reference: the tokenizer and parser that kept a
line and column on every token, kept verbatim below.  Both must give equal
terms, or equal ParseError messages and positions, on the corpus, on the
golden label files and on fixed-seed mutants of them.  The one place they
may differ is where the reference lets `add` through as an operand: it
builds an `Add` of its `add` sentinel, and the parser must raise."""

from __future__ import annotations

import random
import re
from typing import NamedTuple

import pytest

from defuncc import surface, syntax
from defuncc.errors import ParseError
from defuncc.surface import SourceFile, parse_dcc, parse_source, parse_term
from defuncc.syntax import (
    NAT,
    App,
    Label,
    LabelCtx,
    LabelEntry,
    Lam,
    NatLit,
    Pi,
    Term,
    Universe,
    Var,
)

_LABEL_RE = re.compile(r"^l[0-9]+$")

_LEAKS: list[Term] = []  # each Add the reference built of its `add` sentinel


def Add(lhs, rhs) -> Term:
    """syntax.Add, as the reference builds it, noting each sentinel operand."""
    term = syntax.Add(lhs, rhs)
    if lhs is _ADD_HEAD or rhs is _ADD_HEAD:
        _LEAKS.append(term)
    return term


# ---------------------------------------------------------------------------
# The reference

_KEYWORDS = {"fun", "axiom", "def", "label", "Type", "Nat", "add"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<arrow>->)
  | (?P<darrow>=>)
  | (?P<assign>:=)
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[(){},:;])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):  # a tuple: built with no per-field setattr
    kind: str  # arrow darrow assign nat ident sym eof (keywords keep kind ident)
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - bol + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, pos - bol + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            bol = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - bol + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_ADD_HEAD = object()


class _Parser:
    def __init__(self, text: str, allow_labels: bool):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_labels = allow_labels
        self.declared: dict[str, str] = {}  # name -> kind of its declaration

    # -- token plumbing

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.fail(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def expect_sym(self, sym: str) -> Token:
        return self.expect("sym", sym)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        if tok.text in _KEYWORDS:
            raise self.fail(f"keyword {tok.text!r} cannot be used as {what}")
        if _LABEL_RE.match(tok.text):
            raise self.fail(f"{tok.text!r} is reserved for labels")
        self.advance()
        return tok.text

    # -- terms

    def term(self) -> Term:
        if self.at_keyword("fun"):
            self.advance()
            self.expect_sym("(")
            binder = self.ident("binder")
            self.expect_sym(":")
            domain = self.term()
            self.expect_sym(")")
            self.expect("darrow")
            body = self.term()
            return Lam(binder, domain, body)
        if (
            self.peek().kind == "sym"
            and self.peek().text == "("
            and self.peek(1).kind == "ident"
            and self.peek(1).text not in _KEYWORDS
            and self.peek(2).kind == "sym"
            and self.peek(2).text == ":"
        ):
            self.advance()
            binder = self.ident("binder")
            self.expect_sym(":")
            domain = self.term()
            self.expect_sym(")")
            self.expect("arrow")
            codomain = self.term()
            return Pi(binder, domain, codomain)
        left = self.app()
        if self.peek().kind == "arrow":
            self.advance()
            right = self.term()
            return Pi("_", left, right)
        return left

    def app(self) -> Term:
        parts: list = [self.atom()]
        while self.at_atom_start():
            parts.append(self.atom())
        if parts[0] is _ADD_HEAD:
            if len(parts) < 3:
                raise self.fail("'add' needs two arguments")
            term: Term = Add(parts[1], parts[2])
            rest = parts[3:]
        else:
            term = parts[0]
            rest = parts[1:]
        for p in rest:
            if p is _ADD_HEAD:
                raise self.fail("'add' cannot appear as an argument; parenthesize")
            term = App(term, p)
        return term

    def at_atom_start(self) -> bool:
        tok = self.peek()
        if tok.kind in ("nat",):
            return True
        if tok.kind == "sym" and tok.text == "(":
            return True
        if tok.kind == "ident":
            return tok.text not in ("fun", "axiom", "def", "label")
        return False

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "nat":
            self.advance()
            return NatLit(int(tok.text))
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.term()
            self.expect_sym(")")
            return inner
        if tok.kind != "ident":
            raise self.fail(f"expected a term, found {tok.text or 'end of input'!r}")
        if tok.text == "Type":
            self.advance()
            level = self.expect("nat")
            return Universe(int(level.text))
        if tok.text == "Nat":
            self.advance()
            return NAT
        if tok.text == "add":
            self.advance()
            return _ADD_HEAD  # type: ignore[return-value]
        if _LABEL_RE.match(tok.text):
            if not (self.peek(1).kind == "sym" and self.peek(1).text == "{"):
                raise self.fail(f"label {tok.text} must be applied to a closure {{...}}")
            if not self.allow_labels:
                raise self.fail("label expressions are not allowed in source files")
            self.advance()
            self.expect_sym("{")
            args: list[Term] = []
            if not (self.peek().kind == "sym" and self.peek().text == "}"):
                args.append(self.term())
                while self.peek().kind == "sym" and self.peek().text == ",":
                    self.advance()
                    args.append(self.term())
            self.expect_sym("}")
            return Label(int(tok.text[1:]), tuple(args))
        if tok.text in _KEYWORDS:
            raise self.fail(f"keyword {tok.text!r} cannot start a term")
        if tok.text == "_":
            raise self.fail("'_' is not a variable")
        self.advance()
        return Var(tok.text)

    # -- declarations

    def declared_name(self, kind: str) -> str:
        """The name a declaration introduces; a file declares each name once."""
        where = self.peek()
        if kind != "label":
            name = self.ident(f"{kind} name")
        elif where.kind == "ident" and _LABEL_RE.match(where.text):
            name = self.advance().text
        else:
            raise self.fail("expected a label name like l0")
        prior = self.declared.get(name)
        if prior == kind:
            raise ParseError(f"duplicate {kind} {name!r}", where.line, where.col)
        if prior is not None:
            message = f"{kind} {name!r} reuses the name of an earlier {prior}"
            raise ParseError(message, where.line, where.col)
        self.declared[name] = kind
        return name

    def label_block(self) -> LabelEntry:
        self.expect("ident", "label")
        label_id = int(self.declared_name("label")[1:])
        self.expect_sym("{")
        telescope: list[tuple[str, Term]] = []
        if not (self.peek().kind == "sym" and self.peek().text == "}"):
            while True:
                x = self.ident("closure variable")
                self.expect_sym(":")
                telescope.append((x, self.term()))
                if self.peek().kind == "sym" and self.peek().text == ",":
                    self.advance()
                    continue
                break
        self.expect_sym("}")
        self.expect_sym("(")
        arg = self.ident("argument binder")
        self.expect_sym(":")
        arg_type = self.term()
        self.expect_sym(")")
        self.expect("arrow")
        ret_type = self.term()
        self.expect("assign")
        body = self.term()
        self.expect_sym(";")
        return LabelEntry(label_id, tuple(telescope), arg, arg_type, body, ret_type)

    def file(self) -> "SourceFile":
        decls: list[tuple[str, Term, Term | None]] = []
        labels: list[LabelEntry] = []
        main: Term | None = None
        while self.peek().kind != "eof":
            if self.at_keyword("axiom") or self.at_keyword("def"):
                kind = "axiom" if self.advance().text == "axiom" else "definition"
                name = self.declared_name(kind)
                self.expect_sym(":")
                ty = self.term()
                body = None
                if kind == "definition":
                    self.expect("assign")
                    body = self.term()
                self.expect_sym(";")
                decls.append((name, ty, body))
            elif self.at_keyword("label"):
                if not self.allow_labels:
                    raise self.fail("label blocks are not allowed in source files")
                labels.append(self.label_block())
            else:
                main = self.term()
                if self.peek().kind == "sym" and self.peek().text == ";":
                    self.advance()
                if self.peek().kind != "eof":
                    raise self.fail("the main term must be the last item in the file")
                break
        return SourceFile(tuple(decls), LabelCtx(tuple(labels)), main)


def reference_parse_term(text: str, allow_labels: bool = False) -> Term:
    p = _Parser(text, allow_labels)
    t = p.term()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after term")
    return t


def reference_parse_source(text: str) -> SourceFile:
    return _Parser(text, allow_labels=False).file()


def reference_parse_dcc(text: str) -> SourceFile:
    return _Parser(text, allow_labels=True).file()


# ---------------------------------------------------------------------------
# The comparison


ENTRY_POINTS = [
    ("parse_term", lambda t: parse_term(t, allow_labels=True),
     lambda t: reference_parse_term(t, allow_labels=True)),
    ("parse_term(no labels)", parse_term, reference_parse_term),
    ("parse_source", parse_source, reference_parse_source),
    ("parse_dcc", parse_dcc, reference_parse_dcc),
]


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


def assert_parsers_agree(texts) -> dict[str, int]:
    """Compare every entry point on every text; count the kinds of outcome."""
    seen = {"parsed": 0, "error": 0, "leak": 0}
    for text in texts:
        for name, parse, reference in ENTRY_POINTS:
            _LEAKS.clear()
            mine, ref = _outcome(parse, text), _outcome(reference, text)
            if _LEAKS:
                assert isinstance(mine, tuple), (name, text)
                assert "'add' cannot appear as an argument" in mine[1], (name, text)
                seen["leak"] += 1
                continue
            assert mine == ref, (name, text)
            seen["error" if isinstance(ref, tuple) else "parsed"] += 1
    return seen


def test_the_corpus_and_golden_files_parse_alike(input_files):
    seen = assert_parsers_agree(text for _, text in input_files)
    assert seen["parsed"] and seen["error"]


def test_mutants_parse_alike(mutants):
    seen = assert_parsers_agree(text for _, text in mutants(2000, seed=18))
    assert seen["parsed"] > 500 and seen["error"] > 500


# `add` as an operand or an argument, which the reference let through
ADD_ARGUMENTS = ["add 2 add", "add add 1 2", "axiom n : Nat; add add 1 (add 1 n)"]


@pytest.mark.parametrize("text", ADD_ARGUMENTS)
def test_only_a_leaked_add_may_differ(text):
    seen = assert_parsers_agree([text])
    assert seen["leak"] and not seen["parsed"]


# ---------------------------------------------------------------------------
# The one-call tokenizer against the reference, which keeps every token's
# line and column


class _EagerPositions(surface._Parser):
    """The parser with every token's line and column found up front by the
    reference tokenizer, as it was before offsets were found only for an
    error."""

    def __init__(self, text: str, allow_labels: bool):
        super().__init__(text, allow_labels)
        self.positions = tokenize(text)

    def fail(self, message: str, at: int | None = None) -> ParseError:
        tok = self.positions[self.pos if at is None else at]
        return ParseError(message, tok.line, tok.col)


# what a random text is made of: tokens, comments (one at the end of the
# input too), lone characters that are no token, non-ASCII letters and
# digits, and Unicode whitespace
_PIECES = ("(", ")", "{", "}", ",", ":", ";", "->", "=>", ":=", "add", "fun", "Type", "Nat",
           "label", "axiom", "def", "l0", "l12", "_", "x", "y'", "x1", "0", "42",
           "--", "-- c", "---", "-- x\n", "-", "=", ">", "'", "$", "é", "λ", "٣", "²",
           " ", "\n", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " ", " ",
           "　")


def _result(run):
    try:
        return run()
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


def test_random_texts_tokenize_and_fail_alike():
    rng = random.Random(25)
    seen = {"tokens": 0, "token error": 0, "parsed": 0, "parse error": 0}
    for _ in range(200_000):
        text = "".join(rng.choices(_PIECES, k=rng.randrange(9)))
        tokens = _result(lambda: surface._tokens(text))
        reference = _result(lambda: [tok.text for tok in tokenize(text)])
        assert tokens == reference, text
        if isinstance(tokens, tuple):
            seen["token error"] += 1
            continue
        seen["tokens"] += 1
        parsed = _result(lambda: parse_dcc(text))
        assert parsed == _result(lambda: _EagerPositions(text, allow_labels=True).file()), text
        seen["parse error" if isinstance(parsed, tuple) else "parsed"] += 1
    assert min(seen.values()) > 1000, seen
