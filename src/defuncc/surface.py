"""Concrete syntax: tokenizer, parsers, and deterministic printers.

Source files (.cc) hold axiom/def declarations and an optional main term.
Defunctionalized files (.dcc) additionally hold label blocks.  Identifiers
matching l<digits> are reserved for labels in both dialects.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass

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
    free_vars,
    subst_many,
)

# ---------------------------------------------------------------------------
# Printing

_ATOM = 2
_APP = 1
_TERM = 0

_LABEL_RE = re.compile(r"^l[0-9]+$")


def label_name(label_id: int) -> str:
    return "l" + _digits(label_id)


def _digits(n: int) -> str:
    """n in decimal, however long: `str` alone stops at 4,300 digits, and
    `decimal` converts exactly at any length (imported only when needed, as
    it adds about a millisecond to every start)."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _number(text: str) -> int:
    """The value of a digit string, however long (see `_digits`)."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(text))


def show_term(t: Term) -> str:
    return _show(t, {})


# the precedence a node needs to stand without parentheses; any other node is an atom
_NEEDS = {App: _APP, Add: _APP, Lam: _TERM, Pi: _TERM}


def _show(t: Term, memo: dict[int, str], prec: int = _TERM) -> str:
    """t's text where precedence `prec` reads it.  `memo` maps id(node) to
    the node's text without parentheses, which depends on the node alone;
    one document shares one memo, and its nodes stay alive while it prints,
    so it prints each node once however often the node is restated."""
    cls = type(t)
    if cls is Var:
        return t.name
    s = memo.get(id(t))
    if s is None:
        if cls is App:
            s = f"{_show(t.fn, memo, _APP)} {_show(t.arg, memo, _ATOM)}"
        elif cls is Pi and t.binder in free_vars(t.codomain):
            s = f"({t.binder} : {_show(t.domain, memo)}) -> {_show(t.codomain, memo)}"
        elif cls is Pi:
            s = f"{_show(t.domain, memo, _APP + 1)} -> {_show(t.codomain, memo)}"
        elif cls is Lam:
            s = f"fun ({t.binder} : {_show(t.domain, memo)}) => {_show(t.body, memo)}"
        elif cls is Label:
            inner = ", ".join(_show(a, memo) for a in t.args)
            s = f"{label_name(t.label_id)}{{{inner}}}"
        elif cls is Add:
            s = f"add {_show(t.lhs, memo, _ATOM)} {_show(t.rhs, memo, _ATOM)}"
        elif cls is NatType:
            s = "Nat"
        elif cls is Universe:
            s = "Type " + _digits(t.level)
        elif cls is NatLit:
            s = _digits(t.value)
        elif cls is ESubst:
            pairs = ", ".join(f"{sb.name} |-> {_show(sb.value, memo)}" for sb in t.bindings)
            s = f"{_show(t.subject, memo, _ATOM)}{{{pairs}}}"
        else:
            raise TypeError(f"not a term: {t!r}")
        memo[id(t)] = s
    return f"({s})" if prec > _NEEDS.get(cls, _ATOM) else s


def show_entry(e: LabelEntry, memo: dict[int, str]) -> str:
    """A label block; `memo` is its document's (see `_show`)."""
    tele = ", ".join(f"{x} : {_show(a, memo)}" for x, a in e.telescope)
    return (
        f"label {label_name(e.label_id)} {{{tele}}} "
        f"({e.arg_name} : {_show(e.arg_type, memo)}) -> {_show(e.ret_type, memo)} "
        f":= {_show(e.body, memo)};"
    )


def show_label_ctx(defs: LabelCtx, memo: dict[int, str]) -> str:
    return "\n".join(show_entry(e, memo) for e in defs)


def show_ctx(ctx: Ctx, memo: dict[int, str] | None = None) -> str:
    memo = {} if memo is None else memo
    return "\n".join(f"axiom {x} : {_show(a, memo)};" for x, a in ctx)


def emit_text(defs: LabelCtx, ctx: Ctx, term: Term | None) -> str:
    """Re-checkable .dcc document: label blocks, axioms, main term."""
    memo: dict[int, str] = {}
    parts = show_label_ctx(defs, memo), show_ctx(ctx, memo), term and _show(term, memo)
    return "\n".join(filter(None, parts)) + "\n"  # an empty part is left out


def emit_json(defs: LabelCtx, ctx: Ctx, term: Term | None) -> str:
    memo: dict[int, str] = {}
    doc = {
        "labels": [
            {
                "name": label_name(e.label_id),
                "fvs": [{"x": x, "type": _show(a, memo)} for x, a in e.telescope],
                "arg": {"x": e.arg_name, "type": _show(e.arg_type, memo)},
                "body": _show(e.body, memo),
                "ret": _show(e.ret_type, memo),
            }
            for e in defs
        ],
        "context": [{"x": x, "type": _show(a, memo)} for x, a in ctx],
        "term": None if term is None else _show(term, memo),
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Tokenizer

_KEYWORDS = {"fun", "axiom", "def", "label", "Type", "Nat", "add"}

# How "expected ..." names the tokens that are not named by their own text
_TOKEN_NAMES = {"->": "arrow", "=>": "darrow", ":=": "assign"}


def _error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at `offset`, with the line and column found only now."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


# One match per token, comment or other non-space character, which is
# unexpected unless it is a token.  A token is an identifier or a keyword
# exactly when its first character could start a Python identifier.
_TOKEN_RE = re.compile(r"->|=>|:=|[0-9]+|[A-Za-z_][A-Za-z0-9_']*|[(){},:;]|--[^\n]*|\S")
_ONE_CHAR_TOKENS = frozenset("(){},:;_0123456789" + string.ascii_letters)


def _tokens(text: str) -> list[str]:
    """The tokens of `text`, in one regex call; "" ends the input."""
    tokens = _TOKEN_RE.findall(text)
    if "--" in text:
        tokens = [tok for tok in tokens if not tok.startswith("--")]
    if not all(len(tok) > 1 or tok in _ONE_CHAR_TOKENS for tok in set(tokens)):
        for m in _TOKEN_RE.finditer(text):
            if len(m[0]) == 1 and m[0] not in _ONE_CHAR_TOKENS:
                raise _error(f"unexpected character {m[0]!r}", text, m.start())
    tokens.append("")
    return tokens


def _offsets(text: str) -> list[int]:
    """Where each of the tokens of `text` starts: found only for an error."""
    return [m.start() for m in _TOKEN_RE.finditer(text) if not m[0].startswith("--")] + [len(text)]


# ---------------------------------------------------------------------------
# Parser

_ADD_HEAD = object()


class _Parser:
    def __init__(self, text: str, allow_labels: bool):
        self.text = text
        self.tokens = _tokens(text)
        self.pos = 0
        self.allow_labels = allow_labels
        self.declared: dict[str, str] = {}  # name -> kind of its declaration
        self.nodes: dict[tuple, object] = {}  # every node and closure this parse made, by key

    # -- token plumbing

    def peek(self, ahead: int = 0) -> str:
        """The token `ahead` places on.  Never look past "", the end of input."""
        return self.tokens[self.pos + ahead]

    def fail(self, message: str, at: int | None = None) -> ParseError:
        return _error(message, self.text, _offsets(self.text)[self.pos if at is None else at])

    def unexpected(self, want: str) -> ParseError:
        return self.fail(f"expected {want}, found {self.peek() or 'end of input'!r}")

    def expect(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.unexpected(repr(_TOKEN_NAMES.get(tok, tok)))
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if not tok[:1].isidentifier():
            raise self.unexpected(what)
        if tok in _KEYWORDS:
            raise self.fail(f"keyword {tok!r} cannot be used as {what}")
        if _LABEL_RE.match(tok):
            raise self.fail(f"{tok!r} is reserved for labels")
        self.pos += 1
        return tok

    def binding(self, what: str) -> tuple[str, Term]:
        """`(x : A)`, as `fun`, a dependent product and a label's argument bind."""
        self.expect("(")
        x = self.ident(what)
        self.expect(":")
        domain = self.term()
        self.expect(")")
        return x, domain

    def closure(self, item) -> tuple:
        """`{item, ...}`: a label's closure, or the telescope of a label block."""
        self.expect("{")
        items = []
        if self.peek() != "}":
            items.append(item())
            while self.peek() == ",":
                self.pos += 1
                items.append(item())
        self.expect("}")
        return tuple(items)

    # -- terms

    def node(self, cls, *fields) -> Term:
        """cls(*fields), made once per parse: equal terms are one object."""
        if len(fields) == 1:  # a leaf, by its name or number
            key = (cls, fields[0])
        elif len(fields) == 2 and cls is not Label:  # an application or an addition
            key = (cls, id(fields[0]), id(fields[1]))  # children by id: made here, kept alive
        else:  # a binder's name or a label's number, then the children
            key = (cls, fields[0], *map(id, fields[1:]))
        return self.nodes.get(key) or self.nodes.setdefault(key, cls(*fields))

    def term(self) -> Term:
        tok = self.tokens[self.pos]
        if tok == "fun":
            self.pos += 1
            binder, domain = self.binding("binder")
            self.expect("=>")
            return self.node(Lam, binder, domain, self.term())
        if (tok == "(" and self.peek(1)[:1].isidentifier()
                and self.peek(1) not in _KEYWORDS and self.peek(2) == ":"):
            binder, domain = self.binding("binder")
            self.expect("->")
            return self.node(Pi, binder, domain, self.term())
        # an application, read here so a parenthesis level costs two frames
        left = self.atom()
        args: list = []
        while self.at_atom_start():
            args.append(self.atom())
        if left is _ADD_HEAD and len(args) < 2:
            raise self.fail("'add' needs two arguments")
        if _ADD_HEAD in args:
            raise self.fail("'add' cannot appear as an argument; parenthesize")
        if left is _ADD_HEAD:
            left, args = self.node(Add, args[0], args[1]), args[2:]
        for a in args:
            left = self.node(App, left, a)
        if self.tokens[self.pos] == "->":
            self.pos += 1
            return self.node(Pi, "_", left, self.term())
        return left

    def at_atom_start(self) -> bool:
        tok = self.tokens[self.pos]
        return tok == "(" or tok.isdigit() or (
            tok[:1].isidentifier() and tok not in ("fun", "axiom", "def", "label"))

    def atom(self) -> Term:
        tok = self.tokens[self.pos]
        if tok.isdigit():
            self.pos += 1
            return self.node(NatLit, _number(tok))
        if tok == "(":
            self.pos += 1
            inner = self.term()
            self.expect(")")
            return inner
        if not tok[:1].isidentifier():
            raise self.unexpected("a term")
        if tok == "Type":
            self.pos += 1
            level = self.peek()
            if not level.isdigit():
                raise self.unexpected("'nat'")
            self.pos += 1
            return self.node(Universe, _number(level))
        if tok == "Nat":
            self.pos += 1
            return NAT
        if tok == "add":
            self.pos += 1
            return _ADD_HEAD  # type: ignore[return-value]
        if _LABEL_RE.match(tok):
            if self.peek(1) != "{":
                raise self.fail(f"label {tok} must be applied to a closure {{...}}")
            if not self.allow_labels:
                raise self.fail("label expressions are not allowed in source files")
            self.pos += 1
            args = self.closure(self.term)
            args = self.nodes.setdefault((tuple, *map(id, args)), args)  # equal closures: one tuple
            return self.node(Label, _number(tok[1:]), args)
        if tok in _KEYWORDS:
            raise self.fail(f"keyword {tok!r} cannot start a term")
        if tok == "_":
            raise self.fail("'_' is not a variable")
        self.pos += 1
        return self.node(Var, tok)

    # -- declarations

    def declared_name(self, kind: str) -> str:
        """The name a declaration introduces; a file declares each name once."""
        where = self.pos
        if kind != "label":
            name = self.ident(f"{kind} name")
        elif _LABEL_RE.match(self.peek()):
            name = self.peek()
            self.pos += 1
        else:
            raise self.fail("expected a label name like l0")
        prior = self.declared.get(name)
        if prior == kind:
            raise self.fail(f"duplicate {kind} {name!r}", where)
        if prior is not None:
            raise self.fail(f"{kind} {name!r} reuses the name of an earlier {prior}", where)
        self.declared[name] = kind
        return name

    def typed_name(self) -> tuple[str, Term]:
        x = self.ident("closure variable")
        self.expect(":")
        return x, self.term()

    def label_block(self) -> LabelEntry:
        self.expect("label")
        label_id = _number(self.declared_name("label")[1:])
        telescope = self.closure(self.typed_name)
        arg, arg_type = self.binding("argument binder")
        self.expect("->")
        ret_type = self.term()
        self.expect(":=")
        body = self.term()
        self.expect(";")
        return LabelEntry(label_id, telescope, arg, arg_type, body, ret_type)

    def file(self) -> "SourceFile":
        decls: list[tuple[str, Term, Term | None]] = []
        labels: list[LabelEntry] = []
        main: Term | None = None
        while tok := self.peek():
            if tok == "axiom" or tok == "def":
                self.pos += 1
                kind = "axiom" if tok == "axiom" else "definition"
                name = self.declared_name(kind)
                self.expect(":")
                ty = self.term()
                body = None
                if kind == "definition":
                    self.expect(":=")
                    body = self.term()
                self.expect(";")
                decls.append((name, ty, body))
            elif tok == "label":
                if not self.allow_labels:
                    raise self.fail("label blocks are not allowed in source files")
                labels.append(self.label_block())
            else:
                main = self.term()
                if self.peek() == ";":
                    self.pos += 1
                if self.peek():
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
        axioms: list[tuple[str, Term]] = []
        checked: list[tuple[str, Term, Term]] = []
        for name, ty, body in self.decls:
            ty = subst_many(ty, expansion)
            if body is None:
                axioms.append((name, ty))
            else:
                body = subst_many(body, expansion)
                checked.append((name, ty, body))
                expansion[name] = body
        main = None if self.main is None else subst_many(self.main, expansion)
        return Elaborated(ctx=Ctx(tuple(axioms)), defs=tuple(checked), labels=self.labels, main=main)


@dataclass(frozen=True)
class Elaborated:
    ctx: Ctx
    defs: tuple[tuple[str, Term, Term], ...]  # (name, annotation, expanded body)
    labels: LabelCtx
    main: Term | None


def parse_term(text: str, allow_labels: bool = False) -> Term:
    p = _Parser(text, allow_labels)
    t = p.term()
    if p.peek():
        raise p.fail("trailing input after term")
    return t


def parse_source(text: str) -> SourceFile:
    return _Parser(text, allow_labels=False).file()


def parse_dcc(text: str) -> SourceFile:
    return _Parser(text, allow_labels=True).file()
