"""Source-language type checking, reduction, and definitional equivalence."""

import importlib
from pathlib import Path

import pytest

from defuncc.cc import (
    CC,
    cc_check_context,
    cc_equiv,
    cc_infer,
    cc_normalize,
    cc_reduce_trace,
    fv_telescope,
)
from defuncc.errors import (
    DefunccError,
    IllFormedContext,
    NotAFunction,
    NotAType,
    StepBudgetExceeded,
    TypeCheckError,
    TypeMismatch,
    UnboundVariable,
)
from defuncc.dcc import dcc_infer
from defuncc.harness import verify_path
from defuncc.kernel import DEFAULT_BUDGET, Budget, check_context, infer_type, reduce_step
from defuncc.sigma import ccs_infer
from defuncc.surface import parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    LabelCtx,
    Lam,
    NatLit,
    NatType,
    Pi,
    Universe,
    Var,
    alpha_eq,
    free_var_set,
)

EMPTY = Ctx()
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def ctx_of(*pairs: tuple[str, str]) -> Ctx:
    ctx = Ctx()
    for name, ty in pairs:
        ctx = ctx.extend(name, parse_term(ty))
    return ctx


class TestInfer:
    def test_universe_in_next_universe(self):
        d = cc_infer(EMPTY, Universe(0))
        assert d.type == Universe(1)

    def test_universe_tower(self):
        assert cc_infer(EMPTY, Universe(3)).type == Universe(4)

    def test_identity_applied_to_nat(self):
        t = App(Lam("x", Universe(0), Var("x")), NatType())
        assert cc_infer(EMPTY, t).type == Universe(0)

    def test_dependent_compose_type(self, elaborated):
        elab = elaborated("compose_dependent")
        d = cc_infer(elab.ctx, elab.main)
        expected = parse_term(
            "(A : Type 0) -> (B : A -> Type 0) -> "
            "(C : (x : A) -> B x -> Type 0) -> "
            "(f : (x : A) -> (y : B x) -> C x y) -> "
            "(g : (x : A) -> B x) -> (x : A) -> C x (g x)"
        )
        assert alpha_eq(d.type, expected)

    def test_pi_lands_in_max_universe(self):
        # (A : Type 1) -> A lives in Type 2, not Type 1.
        t = parse_term("(A : Type 1) -> A")
        assert cc_infer(EMPTY, t).type == Universe(2)

    def test_nat_literals(self):
        assert cc_infer(EMPTY, NatLit(7)).type == NatType()
        assert cc_infer(EMPTY, NatType()).type == Universe(0)

    def test_derivation_records_judgement(self):
        ctx = ctx_of(("A", "Type 0"), ("a", "A"))
        d = cc_infer(ctx, Var("a"))
        assert d.subject == Var("a")
        assert d.type == Var("A")
        assert d.ctx == ctx

    def test_application_substitutes_dependent_codomain(self):
        ctx = ctx_of(("A", "Type 0"), ("P", "A -> Type 0"), ("a", "A"),
                     ("h", "(x : A) -> P x"))
        d = cc_infer(ctx, parse_term("h a"))
        assert cc_equiv(d.type, parse_term("P a"))


class TestInferErrors:
    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            cc_infer(EMPTY, Var("ghost"))

    @pytest.mark.parametrize(
        "infer",
        [cc_infer, ccs_infer, lambda ctx, t: dcc_infer(LabelCtx(), ctx, t)],
        ids=["cc", "sigma", "dcc"],
    )
    def test_the_anonymous_binder_is_no_variable(self, infer):
        """`_` names no variable, even where the context binds it, so a binder
        `_` needs no rename: nothing it binds can be captured."""
        for ctx in (EMPTY, ctx_of(("_", "Nat"))):
            with pytest.raises(UnboundVariable):
                infer(ctx, Var("_"))
        with pytest.raises(UnboundVariable):
            infer(EMPTY, Pi("_", NatType(), Var("_")))

    def test_not_a_function(self):
        with pytest.raises(NotAFunction):
            cc_infer(EMPTY, App(NatLit(1), NatLit(2)))

    def test_argument_type_mismatch(self):
        t = App(Lam("x", NatType(), Var("x")), Universe(0))
        with pytest.raises(TypeMismatch):
            cc_infer(EMPTY, t)

    def test_domain_must_be_a_type(self):
        with pytest.raises(NotAType):
            cc_infer(EMPTY, Lam("x", NatLit(3), Var("x")))

    def test_add_requires_nat_operands(self):
        with pytest.raises(TypeMismatch):
            cc_infer(EMPTY, Add(NatLit(1), Universe(0)))


class TestReduce:
    def test_beta_step(self):
        t = App(Lam("x", Var("A"), Var("x")), Var("y"))
        assert reduce_step(CC, t) == Var("y")

    def test_add_of_literals(self):
        assert reduce_step(CC, Add(NatLit(1), NatLit(1))) == NatLit(2)

    def test_pi_is_normal(self):
        assert reduce_step(CC, parse_term("(x : A) -> B")) is None

    def test_open_add_is_normal(self):
        assert reduce_step(CC, Add(NatLit(1), Var("n"))) is None

    def test_trace_collects_each_step(self):
        t = parse_term("(fun (n : Nat) => add 1 ((fun (x : Nat) => add 1 x) n)) 3")
        trace = cc_reduce_trace(t)
        assert trace[0] == t
        assert trace[-1] == NatLit(5)
        assert all(
            reduce_step(CC, a) == b for a, b in zip(trace, trace[1:])
        )


class TestNormalize:
    def test_nested_beta_and_add(self):
        t = parse_term("(fun (n : Nat) => add 1 ((fun (x : Nat) => add 1 x) n)) 3")
        assert cc_normalize(t) == NatLit(5)

    def test_reduction_under_binders_and_heads(self):
        t = parse_term("A (fun (n : Nat) => add 1 ((fun (x : Nat) => add 1 x) n))")
        expected = parse_term("A (fun (n : Nat) => add 1 (add 1 n))")
        assert alpha_eq(cc_normalize(t), expected)

    def test_universe_is_normal(self):
        assert cc_normalize(Universe(3)) == Universe(3)

    def test_a_normal_form_comes_back_as_itself(self):
        t = parse_term("(x : Nat) -> A (add x 1) -> Nat")
        assert cc_normalize(t) is t

    def test_a_deep_pi_chain_normalizes(self):
        """One Python frame per binder: 800 nested products normalize under
        the default recursion limit (a frame per child list too stopped at
        about 500)."""
        t = NatType()
        for _ in range(800):
            t = Pi("_", NatType(), t)
        assert cc_normalize(t) is t


class TestEquiv:
    def test_eta_expansion(self):
        assert cc_equiv(parse_term("fun (x : A) => f x"), Var("f"))

    def test_beta_related_terms(self):
        assert cc_equiv(App(Lam("x", Var("A"), Var("x")), Var("y")), Var("y"))

    def test_distinct_universes(self):
        assert not cc_equiv(Universe(0), Universe(1))

    def test_symmetric(self):
        a = parse_term("fun (x : A) => f x")
        assert cc_equiv(Var("f"), a)

    def test_eta_unfolding_costs_its_beta_step(self):
        # the kernel unfolds the lambda by applying it to a fresh name
        a = parse_term("fun (x : A) => f x")
        assert cc_equiv(a, Var("f"), 1)
        with pytest.raises(StepBudgetExceeded):
            cc_equiv(a, Var("f"), 0)


class TestContext:
    def test_empty_is_well_formed(self):
        assert cc_check_context(EMPTY) is None

    def test_dependent_entries(self):
        cc_check_context(ctx_of(("A", "Type 0"), ("f", "A -> A")))

    def test_type_variables_may_annotate_later_entries(self):
        cc_check_context(ctx_of(("y", "Type 0"), ("x", "y")))

    def test_non_type_annotation_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            cc_check_context(ctx_of(("n", "Nat"), ("x", "n")))
        assert "not a type" in str(exc.value)

    def test_check_context_raises(self):
        bad = Ctx((("x", Var("missing")),))
        with pytest.raises(IllFormedContext):
            cc_check_context(bad)

    def test_duplicate_names_rejected(self):
        bad = Ctx((("x", NatType()), ("x", NatType())))
        with pytest.raises(TypeCheckError):
            cc_check_context(bad)

    def test_verdicts_and_messages_match_the_prefix_copying_check(self, monkeypatch):
        """`check_context` grows one prefix and one set of bound names; it
        gives every context the verdict, message and step count of the
        check that copied its prefix and rescanned its names per entry: the
        contexts `verify` checks over the corpus and `corpus/bad`, and the
        ill-formed ones, at a full budget and at small ones."""
        seen = []

        def spy(calc, ctx, b):
            seen.append((calc, ctx))
            return check_context(calc, ctx, b)

        for name in ("defuncc.cc", "defuncc.dcc"):
            monkeypatch.setattr(importlib.import_module(name), "check_context", spy)
        verify_path(CORPUS)
        ok, lines, _ = verify_path(CORPUS / "bad")
        assert not ok and any("closure telescope of l0" in line for line in lines)
        monkeypatch.undo()
        ill_formed = [  # a repeated `_` is rejected as any repeated name is
            Ctx((("x", Var("missing")),)),
            Ctx((("x", NatType()), ("x", NatType()))),
            Ctx((("_", Universe(0)), ("_", Universe(0)))),
            ctx_of(("n", "Nat"), ("x", "n")),
            ctx_of(("x", "y"), ("y", "Type 0")),
            ctx_of(("A", "Type 0"), ("f", "A -> A"), ("A", "Type 1")),
            ctx_of(("A", "Type 0"), ("B", "(fun (X : Type 1) => X) A")),
            ctx_of(("F", "(fun (X : Type 1) => X) (Type 0)"), ("y", "F")),  # one step
        ]
        cases = seen + [(CC, ctx) for ctx in ill_formed]
        assert len(cases) > 100
        outcomes = set()
        for calc, ctx in cases:
            for limit in (0, 1, 3, DEFAULT_BUDGET):
                got = _context_verdict(check_context, calc, ctx, limit)
                assert got == _context_verdict(_copying_check_context, calc, ctx, limit)
                outcomes.add(got[0])
        assert {None, "IllFormedContext", "StepBudgetExceeded", "TypeMismatch"} <= outcomes


def _copying_check_context(calc, ctx, b):
    """The context check as it was first written: each entry copies its
    whole prefix and scans the names bound before it (quadratic)."""
    seen = []
    for name, ty in ctx:
        if any(name == n for n, _ in seen):
            raise IllFormedContext(f"context binds {name!r} twice")
        prefix = Ctx(tuple(seen))
        extra = free_var_set(ty) - set(prefix.names())
        if extra:
            raise IllFormedContext(
                f"type of {name!r} mentions later or unbound names {sorted(extra)}"
            )
        try:
            infer_type(calc, prefix, ty, b)
        except NotAType as exc:
            raise IllFormedContext(f"type of {name!r} is not a type: {exc}") from exc
        seen.append((name, ty))


def _context_verdict(check, calc, ctx, limit):
    """(error class or None, its message, steps spent) of one check."""
    b = Budget(limit)
    try:
        check(calc, ctx, b)
    except DefunccError as exc:
        return type(exc).__name__, str(exc), b.used
    return None, "", b.used


class TestFvTelescope:
    def test_closed_term_has_empty_telescope(self):
        assert fv_telescope(EMPTY, parse_term("fun (x : Type 0) => x"),
                            parse_term("(x : Type 0) -> Type 0")) == ()

    def test_open_term_keeps_dependency_order(self):
        ctx = ctx_of(("A", "Type 0"), ("f", "A -> A"), ("x", "A"))
        tele = fv_telescope(ctx, parse_term("f x"), Var("A"))
        assert [name for name, _ in tele] == ["A", "f", "x"]
        assert alpha_eq(dict(tele)["f"], parse_term("A -> A"))

    def test_transitive_dependencies_are_pulled_in(self):
        # The term mentions only x, but the type of x mentions A.
        ctx = ctx_of(("A", "Type 0"), ("unused", "Type 0"), ("x", "A"))
        tele = fv_telescope(ctx, Var("x"), Var("A"))
        assert [name for name, _ in tele] == ["A", "x"]

    def test_inner_compose_lambda_closes_over_five_names(self, elaborated):
        elab = elaborated("compose_dependent")
        term = elab.main
        # Walk to the innermost lambda (binder x) of the compose chain.
        while isinstance(term, Lam) and term.binder != "x":
            term = term.body
        assert isinstance(term, Lam) and term.binder == "x"
        d = cc_infer(elab.ctx, elab.main)
        # Type the innermost lambda in the context of its enclosing binders.
        inner_ctx = elab.ctx
        walk = elab.main
        while isinstance(walk, Lam) and walk.binder != "x":
            inner_ctx = inner_ctx.extend(walk.binder, walk.domain)
            walk = walk.body
        di = cc_infer(inner_ctx, walk, check_ctx=False)
        tele = fv_telescope(inner_ctx, walk, di.type)
        assert [name for name, _ in tele] == ["A", "B", "C", "f", "g"]
        assert alpha_eq(dict(tele)["C"], parse_term("(x : A) -> B x -> Type 0"))
        assert d.rule.startswith("ty-")


class TestMetatheorySmoke:
    def test_subject_reduction_along_a_trace(self):
        ctx = EMPTY
        t = parse_term(
            "(fun (f : Nat -> Nat) => fun (n : Nat) => f (f n)) "
            "(fun (x : Nat) => add x 1) 2"
        )
        ty = cc_infer(ctx, t).type
        for state in cc_reduce_trace(t):
            again = cc_infer(ctx, state).type
            assert cc_equiv(ty, again)

    def test_regularity_types_are_typable(self):
        ctx = ctx_of(("A", "Type 0"), ("f", "A -> A"), ("x", "A"))
        d = cc_infer(ctx, parse_term("f (f x)"))
        assert cc_infer(ctx, d.type).type == Universe(0)


def _premise_counts(deriv) -> dict[str, set[int]]:
    """For each rule in a derivation, the numbers of premises it was given."""
    counts: dict[str, set[int]] = {}
    stack = [deriv]
    while stack:
        d = stack.pop()
        counts.setdefault(d.rule, set()).add(len(d.children))
        stack.extend(d.children)
    return counts


class TestDerivationShape:
    """A derivation holds the premises about its subject's parts only: the
    type a variable, an application or a conversion assigns is not re-derived."""

    @pytest.mark.parametrize("infer", [cc_infer, ccs_infer], ids=["source", "suspension"])
    def test_premises_are_the_subject_parts(self, infer, corpus_judgements):
        counts: dict[str, set[int]] = {}
        for _, ctx, term in corpus_judgements:
            for rule, ns in _premise_counts(infer(ctx, term)).items():
                counts.setdefault(rule, set()).update(ns)
        assert counts["ty-Var"] == {0}
        assert counts["ty-Apply"] == {2}
        assert counts["ty-Equiv"] == {1}

    def test_application_premises_are_function_and_argument(self):
        d = cc_infer(ctx_of(("f", "Nat -> Nat")), parse_term("f 1"))
        assert d.rule == "ty-Apply"
        assert [c.subject for c in d.children] == [Var("f"), NatLit(1)]
        assert [c.rule for c in d.children] == ["ty-Var", "ty-NatLit"]

    def test_conversion_premise_is_the_converted_derivation(self):
        ctx = ctx_of(("P", "Nat -> Type 0"), ("p", "P 2"), ("g", "P (add 1 1) -> Nat"))
        d = cc_infer(ctx, parse_term("g p"))
        conv = d.children[1]
        assert conv.rule == "ty-Equiv"
        assert alpha_eq(conv.type, parse_term("P (add 1 1)"))
        (inner,) = conv.children
        assert inner.rule == "ty-Var" and inner.subject == Var("p")
