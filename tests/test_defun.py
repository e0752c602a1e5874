"""Forward translation: lambdas become labels carrying their closures."""

import pytest

from defuncc.defun import (
    defun,
    defun_context,
    defun_defs,
    defun_expr,
    label_subset,
    label_union,
)
from defuncc.errors import LabelClash
from defuncc.surface import parse_dcc, parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    Label,
    LabelCtx,
    Lam,
    NatLit,
    Universe,
    Var,
    alpha_eq,
)

EMPTY = Ctx()


def closure_names(entry) -> list[str]:
    return [name for name, _ in entry.telescope]


def by_id(defs: LabelCtx):
    return {e.label_id: e for e in defs.entries}


@pytest.fixture(scope="module")
def simply_typed(elaborated):
    elab = elaborated("compose_simply_typed")
    return defun(elab.ctx, elab.main)


@pytest.fixture(scope="module")
def dependent(elaborated):
    elab = elaborated("compose_dependent")
    return defun(elab.ctx, elab.main)


class TestSimplyTypedCompose:
    @pytest.fixture
    def result(self, simply_typed):
        return simply_typed

    def test_term_is_outer_label_with_base_type_closure(self, result):
        assert result.term == Label(0, (Var("B"), Var("C"), Var("A")))

    def test_three_labels(self, result):
        assert len(result.defs.entries) == 3
        assert sorted(result.defs.ids()) == [0, 1, 2]

    def test_closures_grow_along_the_spine(self, result):
        entries = by_id(result.defs)
        assert closure_names(entries[0]) == ["B", "C", "A"]
        assert closure_names(entries[1]) == ["B", "C", "A", "f"]
        assert closure_names(entries[2]) == ["B", "C", "A", "f", "g"]

    def test_innermost_body_applies_the_closure(self, result):
        inner = by_id(result.defs)[2]
        assert alpha_eq(inner.body, parse_term("f (g x)"))
        assert inner.arg_name == "x"
        assert alpha_eq(inner.arg_type, Var("A"))
        assert alpha_eq(inner.ret_type, Var("C"))

    def test_spine_bodies_reference_next_label(self, result):
        entries = by_id(result.defs)
        assert entries[0].body == Label(
            1, (Var("B"), Var("C"), Var("A"), Var("f"))
        )
        assert entries[1].body == Label(
            2, (Var("B"), Var("C"), Var("A"), Var("f"), Var("g"))
        )

    def test_entry_order_is_dependency_closed(self, result):
        seen: set[int] = set()
        for entry in result.defs.entries:
            for ref in _labels_in(entry.body):
                assert ref in seen
            seen.add(entry.label_id)


def _labels_in(t):
    out = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Label):
            out.append(cur.label_id)
            stack.extend(cur.args)
        elif hasattr(cur, "__dataclass_fields__"):
            for f in cur.__dataclass_fields__:
                v = getattr(cur, f)
                if hasattr(v, "__dataclass_fields__"):
                    stack.append(v)
                elif isinstance(v, tuple):
                    stack.extend(
                        x for x in v if hasattr(x, "__dataclass_fields__")
                    )
    return out


class TestDependentCompose:
    @pytest.fixture
    def result(self, dependent):
        return dependent

    def test_closed_term_translates_to_bare_label(self, result):
        assert result.term == Label(0, ())

    def test_six_labels_with_growing_closures(self, result):
        entries = by_id(result.defs)
        assert sorted(entries) == [0, 1, 2, 3, 4, 5]
        expected = [
            [],
            ["A"],
            ["A", "B"],
            ["A", "B", "C"],
            ["A", "B", "C", "f"],
            ["A", "B", "C", "f", "g"],
        ]
        for label_id, names in enumerate(expected):
            assert closure_names(entries[label_id]) == names

    def test_innermost_entry(self, result):
        inner = by_id(result.defs)[5]
        assert alpha_eq(inner.body, parse_term("f x (g x)"))
        assert alpha_eq(inner.ret_type, parse_term("C x (g x)"))
        assert inner.arg_name == "x"

    def test_closure_types_form_a_telescope(self, result):
        entry = by_id(result.defs)[5]
        tele = dict(entry.telescope)
        assert alpha_eq(tele["C"], parse_term("(x : A) -> B x -> Type 0"))
        assert alpha_eq(tele["g"], parse_term("(x : A) -> B x"))


class TestSmallPrograms:
    def test_identity_lambda_gets_empty_closure(self):
        t = Lam("x", Universe(0), Var("x"))
        result = defun(EMPTY, t)
        assert result.term == Label(0, ())
        (entry,) = result.defs.entries
        assert entry.telescope == ()
        assert entry.body == Var("x")
        assert entry.arg_type == Universe(0)

    def test_lambda_free_terms_pass_through(self):
        result = defun(EMPTY, Universe(0))
        assert result.term == Universe(0)
        assert result.defs.entries == ()
        assert result.type_defs.entries == ()

    def test_type_level_function_forces_label_in_type(self, elaborated):
        elab = elaborated("typelevel_nat")
        result = defun(elab.ctx, elab.main)
        assert result.term == App(Var("a"), Label(1, ()))
        # The term mentions only its own lambda's label, but its label
        # context also covers labels appearing in subterm types.
        assert _labels_in(result.term) == [1]
        assert set(result.defs.ids()) == {0, 1, 2}
        # The inferred type contains a substitution-created lambda whose
        # body still mentions the source lambda's label.
        assert set(result.type_defs.ids()) == {1, 2}
        entries = by_id(result.type_defs)
        assert alpha_eq(entries[1].body, parse_term("add 1 x"))
        assert entries[2].body == Add(NatLit(1), App(Label(1, ()), Var("n")))

    def test_context_translation_extracts_label_contexts(self, elaborated):
        elab = elaborated("typelevel_nat")
        result = defun(elab.ctx, elab.main)
        assert set(result.ctx_defs.ids()) == {0}
        entry = by_id(result.ctx_defs)[0]
        assert closure_names(entry) == ["f"]
        assert alpha_eq(entry.body, parse_term("add 1 (f n)"))

    def test_label_context_is_context_labels_then_term_labels(self, corpus_judgements):
        for name, ctx, term in corpus_judgements:
            result = defun(ctx, term)
            assert result.labels == label_union(result.ctx_defs, result.defs), name


class TestDefunContext:
    def test_empty(self):
        ctx, defs = defun_context(EMPTY)
        assert ctx == EMPTY
        assert defs.entries == ()

    def test_lambda_free_context_is_unchanged(self):
        src = Ctx().extend("A", Universe(0)).extend(
            "f", parse_term("A -> A")
        )
        ctx, defs = defun_context(src)
        assert ctx == src
        assert defs.entries == ()


class TestLabelAlgebra:
    D1 = parse_dcc("label l0 {} (x : Nat) -> Nat := x;").labels
    D2 = parse_dcc("label l0 {} (y : Nat) -> Nat := y;").labels
    D3 = parse_dcc("label l0 {} (x : Nat) -> Nat := add x 1;").labels
    EMPTY_DEFS = LabelCtx(())

    def test_subset_of_empty(self):
        assert label_subset(self.EMPTY_DEFS, self.D1)
        assert label_subset(self.D1, self.D1)
        assert not label_subset(self.D1, self.EMPTY_DEFS)

    def test_subset_compares_entries_up_to_renaming(self):
        assert label_subset(self.D1, self.D2)
        assert not label_subset(self.D1, self.D3)

    def test_union_identity_and_idempotence(self):
        assert label_union(self.D1, self.EMPTY_DEFS) == self.D1
        assert label_union(self.EMPTY_DEFS, self.D1) == self.D1
        assert label_union(self.D1, self.D1) == self.D1
        assert label_union(self.D1, self.D2) == self.D1

    def test_union_collects_judgement_artifacts(self, elaborated):
        elab = elaborated("typelevel_nat")
        result = defun(elab.ctx, elab.main)
        total = label_union(
            label_union(result.ctx_defs, result.defs), result.type_defs
        )
        assert set(total.ids()) == {0, 1, 2}

    def test_union_rejects_conflicting_definitions(self):
        with pytest.raises(LabelClash):
            label_union(self.D1, self.D3)


class TestDeterminism:
    def test_repeated_runs_agree(self, elaborated):
        elab = elaborated("compose_dependent")
        first = defun(elab.ctx, elab.main)
        second = defun(elab.ctx, elab.main)
        assert first == second

    def test_expr_and_defs_match_full_run(self, elaborated):
        elab = elaborated("compose_simply_typed")
        result = defun(elab.ctx, elab.main)
        assert defun_expr(elab.ctx, elab.main) == result.term
        assert defun_defs(elab.ctx, elab.main) == result.defs
