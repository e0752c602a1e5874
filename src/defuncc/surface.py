"""Concrete syntax: tokenizer, parsers, and deterministic printers.

Source files (.cc) hold axiom/def declarations and an optional main term.
Defunctionalized files (.dcc) additionally hold label blocks.  Identifiers
matching l<digits> are reserved for labels in both dialects.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError
from .syntax import (
    NAT,
    Add,
    App,
    Ctx,
    ESubst,
    Label,
    LabelCtx,
    LabelEntry,
    Lam,
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    free_var_set,
    subst_many,
)

# ---------------------------------------------------------------------------
# Printing

_ATOM = 2
_APP = 1
_TERM = 0

_LABEL_RE = re.compile(r"^l[0-9]+$")


def label_name(label_id: int) -> str:
    return f"l{label_id}"


def show_term(t: Term) -> str:
    return _show(t, _TERM)


def _show(t: Term, prec: int) -> str:
    match t:
        case Var(name):
            return name
        case Universe(level):
            return f"Type {level}"
        case NatType():
            return "Nat"
        case NatLit(value):
            return str(value)
        case Label(label_id, args):
            inner = ", ".join(_show(a, _TERM) for a in args)
            return f"{label_name(label_id)}{{{inner}}}"
        case App(fn, arg):
            s = f"{_show(fn, _APP)} {_show(arg, _ATOM)}"
            return f"({s})" if prec > _APP else s
        case Add(lhs, rhs):
            s = f"add {_show(lhs, _ATOM)} {_show(rhs, _ATOM)}"
            return f"({s})" if prec > _APP else s
        case Lam(binder, domain, body):
            s = f"fun ({binder} : {_show(domain, _TERM)}) => {_show(body, _TERM)}"
            return f"({s})" if prec > _TERM else s
        case Pi(binder, domain, codomain):
            if binder in free_var_set(codomain):
                s = f"({binder} : {_show(domain, _TERM)}) -> {_show(codomain, _TERM)}"
            else:
                s = f"{_show(domain, _APP + 1)} -> {_show(codomain, _TERM)}"
            return f"({s})" if prec > _TERM else s
        case ESubst(subject, bindings):
            pairs = ", ".join(
                f"{sb.name} |-> {_show(sb.value, _TERM)}" for sb in bindings
            )
            return f"{_show(subject, _ATOM)}{{{pairs}}}"
    raise TypeError(f"not a term: {t!r}")


def show_entry(e: LabelEntry) -> str:
    tele = ", ".join(f"{x} : {show_term(a)}" for x, a in e.telescope)
    return (
        f"label {label_name(e.label_id)} {{{tele}}} "
        f"({e.arg_name} : {show_term(e.arg_type)}) -> {show_term(e.ret_type)} "
        f":= {show_term(e.body)};"
    )


def show_label_ctx(defs: LabelCtx) -> str:
    return "\n".join(show_entry(e) for e in defs)


def show_ctx(ctx: Ctx) -> str:
    return "\n".join(f"axiom {x} : {show_term(a)};" for x, a in ctx)


def emit_text(defs: LabelCtx, ctx: Ctx, term: Term | None) -> str:
    """Re-checkable .dcc document: label blocks, axioms, main term."""
    parts = []
    if len(defs):
        parts.append(show_label_ctx(defs))
    if len(ctx):
        parts.append(show_ctx(ctx))
    if term is not None:
        parts.append(show_term(term))
    return "\n".join(parts) + "\n"


def emit_json(defs: LabelCtx, ctx: Ctx, term: Term | None) -> str:
    doc = {
        "labels": [
            {
                "name": label_name(e.label_id),
                "fvs": [{"x": x, "type": show_term(a)} for x, a in e.telescope],
                "arg": {"x": e.arg_name, "type": show_term(e.arg_type)},
                "body": show_term(e.body),
                "ret": show_term(e.ret_type),
            }
            for e in defs
        ],
        "context": [{"x": x, "type": show_term(a)} for x, a in ctx],
        "term": None if term is None else show_term(term),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Tokenizer

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


@dataclass(frozen=True)
class SourceFile:
    """Parsed declarations in file order plus the optional main term."""

    decls: tuple[tuple[str, Term, Term | None], ...]  # (name, type, body); axioms have no body
    labels: LabelCtx
    main: Term | None

    def elaborate(self) -> "Elaborated":
        """Expand definitions by substitution, in declaration order.

        Axiom types and later declarations see earlier definitions expanded;
        definition bodies are checked (elsewhere) against their annotations.
        """
        expansion: dict[str, Term] = {}
        ctx = Ctx()
        checked: list[tuple[str, Term, Term]] = []
        for name, ty, body in self.decls:
            ty = subst_many(ty, expansion)
            if body is None:
                ctx = ctx.extend(name, ty)
            else:
                body = subst_many(body, expansion)
                checked.append((name, ty, body))
                expansion[name] = body
        main = None if self.main is None else subst_many(self.main, expansion)
        return Elaborated(ctx=ctx, defs=tuple(checked), labels=self.labels, main=main)


@dataclass(frozen=True)
class Elaborated:
    ctx: Ctx
    defs: tuple[tuple[str, Term, Term], ...]  # (name, annotation, expanded body)
    labels: LabelCtx
    main: Term | None


def parse_term(text: str, allow_labels: bool = False) -> Term:
    p = _Parser(text, allow_labels)
    t = p.term()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after term")
    return t


def parse_source(text: str) -> SourceFile:
    return _Parser(text, allow_labels=False).file()


def parse_dcc(text: str) -> SourceFile:
    return _Parser(text, allow_labels=True).file()
