"""Concrete syntax: tokenizer, parser, printer, and emitters."""

import json

import pytest

from defuncc.defun import defun
from defuncc.errors import ParseError
from defuncc.surface import (
    emit_json,
    emit_text,
    label_name,
    parse_dcc,
    parse_source,
    parse_term,
    show_entry,
    show_term,
)
from defuncc.syntax import (
    App,
    ESubst,
    Label,
    Lam,
    NatLit,
    NatType,
    Pi,
    SBind,
    Universe,
    Var,
    alpha_eq,
    children,
    entry_alpha_eq,
)


class TestParseTerm:
    def test_universe(self):
        assert parse_term("Type 0") == Universe(0)
        assert parse_term("Type 12") == Universe(12)

    def test_nat_forms(self):
        assert parse_term("Nat") == NatType()
        assert parse_term("7") == NatLit(7)
        assert parse_term("add 1 n") == parse_term("add 1 n")
        from defuncc.syntax import Add

        assert parse_term("add 1 n") == Add(NatLit(1), Var("n"))

    def test_nested_dependent_products(self):
        t = parse_term("(A : Type 0) -> (x : A) -> A")
        assert t == Pi("A", Universe(0), Pi("x", Var("A"), Var("A")))

    def test_arrow_sugar_is_a_vacuous_product(self):
        t = parse_term("A -> B")
        assert isinstance(t, Pi)
        assert t.domain == Var("A") and t.codomain == Var("B")

    def test_arrow_associates_right(self):
        assert alpha_eq(parse_term("A -> B -> C"),
                        parse_term("A -> (B -> C)"))

    def test_lambda(self):
        t = parse_term("fun (x : Nat) => add x 1")
        assert isinstance(t, Lam)
        assert t.binder == "x" and t.domain == NatType()

    def test_application_associates_left(self):
        assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))

    def test_labels_require_opt_in(self):
        assert parse_term("l0{} 3", allow_labels=True) == App(
            Label(0, ()), NatLit(3)
        )
        with pytest.raises(ParseError):
            parse_term("l0{} 3")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("fun (x : ) => x")
        assert err.value.line == 1
        assert err.value.col == 10
        assert str(err.value).startswith("1:10:")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_term("(f x")

    @pytest.mark.parametrize("parse, text, col", [
        (parse_term, "add 2 add", 10),
        (parse_term, "add add 1 2", 12),
        (parse_term, "add 1 2 add", 12),
        (parse_source, "axiom n : Nat; add add 1 (add 1 n)", 35),
    ])
    def test_add_as_an_operand_or_argument_is_rejected_after_the_application(
            self, parse, text, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"1:{col}: 'add' cannot appear as an argument; parenthesize"
        assert (err.value.line, err.value.col) == (1, col)

    def test_add_alone_as_its_operand_lacks_arguments(self):
        with pytest.raises(ParseError, match=r"^1:8: 'add' needs two arguments$"):
            parse_term("add add")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_source, "-- a comment\naxiom A : Type 0;\n  A B $", "3:7: unexpected character '$'"),
        (parse_source, "def x : Nat\n\n", "3:1: expected 'assign', found 'end of input'"),
        (parse_term, "(x : Nat)\n  Nat", "2:3: expected 'arrow', found 'Nat'"),
        (parse_term, "fun (x : Nat) x", "1:15: expected 'darrow', found 'x'"),
        (parse_term, "Type x", "1:6: expected 'nat', found 'x'"),
    ])
    def test_errors_give_line_column_and_the_token_expected(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


class TestParseDepth:
    """Nests as deep as these parse under the default recursion limit;
    1200 deep gives NestingTooDeep (tests/test_harness.py, tests/test_cli.py)."""

    @pytest.mark.parametrize("open_, close", [("add 1 (", ")"), ("(", ")"), ("f (", ")")])
    def test_a_nest_420_deep_parses(self, open_, close):
        t = parse_term(open_ * 420 + "0" + close * 420)
        depth = 0
        while not isinstance(t, NatLit):
            t, depth = children(t)[-1], depth + 1
        assert depth == (0 if open_ == "(" else 420)

    @pytest.mark.parametrize("link, end", [
        ("fun (x : Nat) => ", "x"), ("Nat -> ", "Nat"), ("(x : Nat) -> ", "Nat")])
    def test_a_chain_900_long_parses(self, link, end):
        t = parse_term(link * 900 + end)
        depth = 0
        while isinstance(t, (Lam, Pi)):
            t, depth = children(t)[-1], depth + 1
        assert depth == 900


class TestShowTerm:
    @pytest.mark.parametrize(
        "source",
        [
            "Type 0",
            "fun (x : Nat) => add x 1",
            "(A : Type 0) -> (B : A -> Type 0) -> (x : A) -> B x",
            "f (g x)",
            "f x y",
            "(fun (x : Nat) => x) 3",
            "A -> B -> C",
        ],
    )
    def test_print_parse_round_trip(self, source):
        t = parse_term(source)
        assert parse_term(show_term(t)) == t

    def test_corpus_terms_round_trip(self, corpus_judgements):
        for name, ctx, term in corpus_judgements:
            assert alpha_eq(parse_term(show_term(term)), term), name

    def test_labels_print_compactly(self):
        assert show_term(Label(0, ())) == "l0{}"
        assert show_term(App(Label(1, (Var("f"),)), Var("x"))) == "l1{f} x"
        assert label_name(3) == "l3"

    def test_application_parenthesization(self):
        assert show_term(parse_term("f (g x)")) == "f (g x)"
        assert show_term(parse_term("f x y")) == "f x y"

    def test_suspensions_show_their_bindings(self):
        t = ESubst(Var("x"), (SBind("x", NatType(), NatLit(3)),))
        assert show_term(t) == "x{x |-> 3}"


class TestSourceFiles:
    def test_axioms_definitions_and_main(self, elaborated):
        elab = elaborated("defs_expansion")
        # Definitions are expanded away: the main term mentions none of them.
        from defuncc.syntax import free_var_set

        defined = {name for name, _, _ in elab.defs}
        assert defined
        assert not (free_var_set(elab.main) & defined)

    def test_comments_and_layout_are_ignored(self):
        sf = parse_source("-- leading comment\naxiom A : Type 0;\nA -- end\n")
        elab = sf.elaborate()
        assert elab.main == Var("A")
        assert elab.ctx.entries == (("A", Universe(0)),)

    def test_every_corpus_file_has_a_main_term(self, corpus_paths):
        for path in corpus_paths:
            sf = parse_source(path.read_text())
            assert sf.main is not None, path.name


@pytest.fixture(scope="module")
def translated(elaborated):
    elab = elaborated("compose_simply_typed")
    return defun(elab.ctx, elab.main)


class TestEmitters:

    def test_emitted_text_parses_back(self, translated):
        text = emit_text(translated.defs, translated.dcc_ctx, translated.term)
        sf = parse_dcc(text)
        assert sf.main == translated.term
        assert len(sf.labels.entries) == len(translated.defs.entries)
        for mine, parsed in zip(translated.defs.entries, sf.labels.entries):
            assert entry_alpha_eq(mine, parsed)
        assert sf.elaborate().ctx == translated.dcc_ctx

    def test_entry_rendering_shape(self, translated):
        entry = translated.defs.lookup(2)
        line = show_entry(entry, {})
        assert line.startswith("label l2 {")
        assert "(x : A) -> C := f (g x);" in line

    def test_json_and_text_describe_the_same_labels(self, translated):
        text = emit_text(translated.defs, translated.dcc_ctx, translated.term)
        data = json.loads(
            emit_json(translated.defs, translated.dcc_ctx, translated.term)
        )
        assert [e["name"] for e in data["labels"]] == [
            label_name(e.label_id) for e in translated.defs.entries
        ]
        assert data["term"] == show_term(translated.term)
        for e in data["labels"]:
            assert f"label {e['name']}" in text

    def test_json_closure_types_print_like_the_entries(self, translated):
        data = json.loads(
            emit_json(translated.defs, translated.dcc_ctx, translated.term)
        )
        inner = data["labels"][0]
        assert [fv["x"] for fv in inner["fvs"]] == ["B", "C", "A", "f", "g"]
        assert inner["fvs"][3]["type"] == "B -> C"
