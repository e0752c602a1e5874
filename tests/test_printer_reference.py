"""The printer against a reference: the printer that built a node's text
again wherever the node is restated, kept verbatim below.  The printer
keeps one table per document, from each node to its text, so a document
prints each distinct node once; both must print every document, and every
term, to the same text."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from defuncc import surface
from defuncc.defun import defun
from defuncc.harness import load_file, source_judgements
from defuncc.surface import emit_json, emit_text, parse_dcc, parse_source, show_ctx, show_term
from defuncc.syntax import (
    NAT,
    Add,
    App,
    ESubst,
    Label,
    LabelEntry,
    Lam,
    NatLit,
    NatType,
    Pi,
    SBind,
    Term,
    Universe,
    Var,
    children,
    free_vars,
)

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# The reference

_ATOM = 2
_APP = 1
_TERM = 0


def label_name(label_id: int) -> str:
    return f"l{label_id}"


def reference_show_term(t: Term) -> str:
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
            if binder in free_vars(codomain):
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


def reference_show_entry(e: LabelEntry) -> str:
    show_term = reference_show_term
    tele = ", ".join(f"{x} : {show_term(a)}" for x, a in e.telescope)
    return (
        f"label {label_name(e.label_id)} {{{tele}}} "
        f"({e.arg_name} : {show_term(e.arg_type)}) -> {show_term(e.ret_type)} "
        f":= {show_term(e.body)};"
    )


def reference_show_label_ctx(defs) -> str:
    return "\n".join(reference_show_entry(e) for e in defs)


def reference_show_ctx(ctx) -> str:
    return "\n".join(f"axiom {x} : {reference_show_term(a)};" for x, a in ctx)


def reference_emit_text(defs, ctx, term) -> str:
    parts = []
    if len(defs):
        parts.append(reference_show_label_ctx(defs))
    if len(ctx):
        parts.append(reference_show_ctx(ctx))
    if term is not None:
        parts.append(reference_show_term(term))
    return "\n".join(parts) + "\n"


def reference_emit_json(defs, ctx, term) -> str:
    show_term = reference_show_term
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
# The comparison


def assert_prints_alike(defs, ctx, term) -> None:
    """One document, and each of its terms alone, print as the reference prints them."""
    assert emit_text(defs, ctx, term) == reference_emit_text(defs, ctx, term)
    assert emit_json(defs, ctx, term) == reference_emit_json(defs, ctx, term)
    assert show_ctx(ctx) == reference_show_ctx(ctx)
    if term is not None:
        assert show_term(term) == reference_show_term(term)


def assert_translation_prints_alike(ctx, term) -> None:
    assert_prints_alike((), ctx, term)
    res = defun(ctx, term)
    assert_prints_alike(res.labels, res.dcc_ctx, res.term)
    assert_prints_alike(res.type_defs, res.dcc_ctx, res.type_term)


def test_the_corpus_prints_alike(corpus_paths):
    for path in corpus_paths:
        elab = load_file(path)
        for _, ctx, term in source_judgements(elab):
            assert_translation_prints_alike(ctx, term)


def test_the_golden_label_files_print_alike():
    paths = sorted((ROOT / "tests" / "golden").glob("*.dcc"))
    assert paths
    for path in paths:
        elab = parse_dcc(path.read_text()).elaborate()
        assert_prints_alike(elab.labels, elab.ctx, elab.main)


def test_the_enumeration_prints_alike(enumerated):
    assert len(enumerated) == 2525
    for ctx, term in enumerated:
        assert_translation_prints_alike(ctx, term)


def test_the_scaling_families_print_alike(scaling, scaling_programs):
    for ctx, term in scaling_programs() + [scaling("vec", n) for n in (9, 10, 11, 12)]:
        assert_translation_prints_alike(ctx, term)


def test_suspensions_print_alike():
    sb = SBind("x", NAT, NatLit(1))
    for t in (ESubst(App(Var("f"), Var("x")), (sb,)), App(Var("g"), ESubst(Var("x"), (sb,)))):
        assert show_term(t) == reference_show_term(t)


DEPTH = 900


def test_a_deep_lambda_nest_prints_alike():
    t: Term = Var("x")
    for _ in range(DEPTH):
        t = Lam("x", NAT, t)
    assert show_term(t) == reference_show_term(t)


def test_a_deep_named_pi_chain_prints_alike():
    """Each binder is free in the rest of the chain, so each is printed by name."""
    t: Term = Var(f"x{DEPTH}")
    for i in range(DEPTH, 0, -1):
        t = Pi(f"x{i}", Var(f"x{i - 1}"), t)
    assert show_term(t) == reference_show_term(t)


# ---------------------------------------------------------------------------
# What one document shares


def _inner_nodes(*roots) -> set[int]:
    """The ids of the distinct nodes with children reachable from roots."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(children(t))
    return {i for i, t in seen.items() if children(t)}


def _document_roots(defs, ctx, term) -> list:
    roots = [a for _, a in ctx] + ([] if term is None else [term])
    for e in defs:
        roots += [a for _, a in e.telescope] + [e.arg_type, e.body, e.ret_type]
    return roots


@pytest.fixture
def built(monkeypatch):
    """The ids of the nodes whose text the printer builds, one per build:
    a node builds its text exactly when it prints its children."""
    out: list[int] = []
    stack: list[list] = []
    show = surface._show

    def spy(t, memo, prec=_TERM):
        if stack:
            stack[-1][1] = True
        stack.append([t, False])
        try:
            return show(t, memo, prec)
        finally:
            node, printed_children = stack.pop()
            if printed_children:
                out.append(id(node))

    monkeypatch.setattr(surface, "_show", spy)
    return out


@pytest.fixture(scope="module")
def chain_60(scaling):
    """The 60-lambda chain's translation and its emitted document, parsed back."""
    res = defun(*scaling("lambdas", 60))
    doc = parse_dcc(emit_text(res.labels, res.dcc_ctx, res.term)).elaborate()
    return res, doc


@pytest.mark.parametrize("emit", [emit_text, emit_json])
def test_a_document_builds_each_node_once(chain_60, built, emit):
    """Each label of the chain restates its return type, so the document
    holds n(n+1)/2 return-type nodes of which n are distinct."""
    res, doc = chain_60
    for document in ((res.labels, res.dcc_ctx, res.term), (doc.labels, doc.ctx, doc.main)):
        built.clear()
        emit(*document)
        assert len(built) == len(set(built))
        assert set(built) == _inner_nodes(*_document_roots(*document))
        assert len(built) < 500  # the restated return types alone print 1,830 nodes


def test_two_documents_share_nothing(chain_60, built):
    """The table lives for one document: the next one builds every text
    again, and a node made after the first is gone (which may reuse its id)
    is not printed from it."""
    res, _ = chain_60
    emit_text(res.labels, res.dcc_ctx, res.term)
    first = list(built)
    built.clear()
    emit_text(res.labels, res.dcc_ctx, res.term)
    assert sorted(built) == sorted(first)
    for n in range(1, 40):
        text = f"axiom f : Nat -> Nat; fun (x : Nat) => add (f x) {n}\n"
        res = defun(*_judgement(text))
        assert emit_text(res.labels, res.dcc_ctx, res.term) == reference_emit_text(
            res.labels, res.dcc_ctx, res.term)


def _judgement(text: str):
    elab = parse_source(text).elaborate()
    return elab.ctx, elab.main
