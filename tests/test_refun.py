"""Backward translation: labels expand into the lambdas they stand for."""

import pytest

from defuncc.cc import cc_equiv, cc_infer, cc_normalize
from defuncc.dcc import dcc_calculus, dcc_check, dcc_infer
from defuncc.defun import defun, label_union
from defuncc.errors import ClosureArity, UnknownLabel
from defuncc.kernel import DEFAULT_BUDGET, Budget, reduce_trace
from defuncc.refun import refun, refun_context, refun_expr
from defuncc.surface import parse_dcc, parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    Label,
    Lam,
    NatLit,
    NatType,
    Universe,
    Var,
    alpha_eq,
    subst,
)

EMPTY = Ctx()

DEFS = parse_dcc(
    """
    label l0 {} (x : Nat) -> Nat := add x 1;
    label l2 {f : Nat -> Nat} (n : Nat) -> Nat := f (f n);
    label l3 {A : Type 0, a : A} (x : Nat) -> A := a;
    """
).labels


@pytest.fixture(scope="module")
def simply_typed(elaborated):
    elab = elaborated("compose_simply_typed")
    return elab, defun(elab.ctx, elab.main)


@pytest.fixture(scope="module")
def dependent(elaborated):
    elab = elaborated("compose_dependent")
    return elab, defun(elab.ctx, elab.main)


class TestExpr:
    def test_label_becomes_its_lambda(self, simply_typed):
        elab, result = simply_typed
        closure = (Var("B"), Var("C"), Var("A"), Var("f"), Var("g"))
        out = refun_expr(result.defs, Label(2, closure))
        assert alpha_eq(out, parse_term("fun (x : A) => f (g x)"))

    def test_closure_arguments_are_substituted(self):
        out = refun_expr(DEFS, Label(3, (NatType(), Add(NatLit(1), NatLit(1)))))
        assert alpha_eq(out, Lam("x", NatType(), Add(NatLit(1), NatLit(1))))

    def test_a_closure_of_the_wrong_length_is_rejected(self):
        """refun reads a closure as the label check does (`dcc._closure`), so
        a missing or extra value is an error, not a silently shorter closure."""
        for closure in ((NatType(),), (NatType(), NatLit(1), NatLit(2))):
            with pytest.raises(ClosureArity):
                refun_expr(DEFS, Label(3, closure))
        with pytest.raises(UnknownLabel):
            refun_expr(DEFS, Label(7, ()))

    def test_variables_pass_through(self):
        assert refun_expr(DEFS, Var("x")) == Var("x")

    def test_label_free_terms_are_structurally_unchanged(self):
        t = parse_term("(x : Type 0) -> x")
        assert refun_expr(DEFS, t) == t

    def test_nested_labels_expand_everywhere(self):
        t = App(Label(2, (Label(0, ()),)), NatLit(1))
        out = refun_expr(DEFS, t)
        expected = parse_term(
            "(fun (n : Nat) => (fun (x : Nat) => add x 1) "
            "((fun (x : Nat) => add x 1) n)) 1"
        )
        assert alpha_eq(out, expected)
        assert cc_normalize(out) == NatLit(3)

    def test_round_trips_dependent_compose(self, dependent):
        elab, result = dependent
        back = refun_expr(result.defs, result.term)
        assert cc_equiv(back, elab.main)

    def test_commutes_with_substitution(self, simply_typed):
        elab, result = simply_typed
        closure = (Var("B"), Var("C"), Var("A"), Var("f"), Var("g"))
        t = Label(2, closure)
        direct = refun_expr(result.defs, subst(t, "g", Var("h")))
        indirect = subst(refun_expr(result.defs, t), "g", Var("h"))
        assert alpha_eq(direct, indirect)


class TestContextAndJudgement:
    def test_empty_context(self):
        assert refun_context(DEFS, EMPTY) == EMPTY

    def test_label_free_context_is_unchanged(self):
        ctx = Ctx().extend("A", Universe(0))
        assert refun_context(DEFS, ctx) == ctx

    def test_translated_context_returns_to_source(self, elaborated):
        elab = elaborated("typelevel_nat")
        result = defun(elab.ctx, elab.main)
        defs = label_union(result.ctx_defs, result.defs)
        back = refun_context(defs, result.dcc_ctx)
        assert back.names() == elab.ctx.names()
        for (_, a), (_, b) in zip(back, elab.ctx):
            assert cc_equiv(a, b)

    def test_backward_type_preservation(self, simply_typed):
        elab, result = simply_typed
        ctx_back, term_back = refun(result.defs, result.dcc_ctx, result.term)
        ty = cc_infer(ctx_back, term_back).type
        assert cc_equiv(ty, refun_expr(result.defs, result.type_term))

    def test_backward_reduction_preservation(self, elaborated):
        elab = elaborated("compose_applied")
        result = defun(elab.ctx, elab.main)
        trace = reduce_trace(dcc_calculus(result.defs), result.term, Budget(DEFAULT_BUDGET))
        assert len(trace) > 1
        backs = [refun_expr(result.defs, s) for s in trace]
        for a, b in zip(backs, backs[1:]):
            assert cc_equiv(a, b)
        assert cc_equiv(backs[0], elab.main)

    def test_backward_typing_matches_dcc_typing(self, dependent):
        elab, result = dependent
        dcc_check(result.defs, EMPTY)
        dcc_ty = dcc_infer(result.defs, EMPTY, result.term)
        back_ty = refun_expr(result.defs, dcc_ty)
        src_ty = cc_infer(elab.ctx, elab.main).type
        assert cc_equiv(back_ty, src_ty)
