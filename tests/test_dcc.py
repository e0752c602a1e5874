"""Target-language typing and reduction: labels applied to closures."""

from pathlib import Path

import pytest

from defuncc import dcc as dcc_module
from defuncc import kernel
from defuncc.cc import cc_infer
from defuncc.dcc import (
    dcc_calculus,
    dcc_check,
    dcc_equiv,
    dcc_infer,
    dcc_normalize,
    label_beta,
)
from defuncc.defun import Translation, defun, label_union
from defuncc.errors import (
    ClosureArity,
    ClosureTypeMismatch,
    StepBudgetExceeded,
    TypeCheckError,
    UnboundVariable,
    UnknownLabel,
)
from defuncc.harness import load_file
from defuncc.kernel import DEFAULT_BUDGET, Budget, infer, reduce_step, reduce_trace
from defuncc.surface import emit_text, parse_dcc, parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    Label,
    LabelCtx,
    NatLit,
    NatType,
    Universe,
    Var,
    alpha_eq,
)

EMPTY = Ctx()
GOLDEN = Path(__file__).resolve().parent / "golden"

PAIR_DEFS = parse_dcc(
    """
    label l0 {} (x : Nat) -> Nat := add x 1;
    label l1 {} (x : Nat) -> Nat := add x 1;
    label l2 {f : Nat -> Nat} (n : Nat) -> Nat := f (f n);
    label l3 {A : Type 0, a : A} (x : Nat) -> A := a;
    """
).labels


@pytest.fixture(scope="module")
def compose_st(elaborated):
    elab = elaborated("compose_simply_typed")
    return elab, defun(elab.ctx, elab.main)


def shared_run(ctx, t1, t2):
    """Translate two judgements in one minting scope so label ids agree."""
    run = Translation(DEFAULT_BUDGET)
    run.translate_context(ctx)
    a, p1 = run.translate(cc_infer(ctx, t1))
    b, p2 = run.translate(cc_infer(ctx, t2))
    ren = run.finalize()
    return ren.term(a), ren.term(b), label_union(
        ren.label_ctx(p1), ren.label_ctx(p2)
    )


class TestInfer:
    def test_pair_defs_are_well_formed(self):
        # the tests below infer under PAIR_DEFS, which dcc_infer takes as checked
        dcc_check(PAIR_DEFS, EMPTY)

    def test_translated_compose_has_arrow_chain_type(self, compose_st):
        elab, result = compose_st
        dcc_check(result.defs, result.dcc_ctx)
        ty = dcc_infer(result.defs, result.dcc_ctx, result.term)
        expected = parse_term("(f : B -> C) -> (g : A -> B) -> (x : A) -> C")
        assert alpha_eq(ty, expected)

    def test_translated_type_matches_inferred_type(self, compose_st):
        elab, result = compose_st
        dcc_check(result.defs, result.dcc_ctx)
        ty = dcc_infer(result.defs, result.dcc_ctx, result.term)
        assert dcc_equiv(result.defs, ty, result.type_term)

    def test_dependent_compose_label_type(self, elaborated):
        elab = elaborated("compose_dependent")
        result = defun(elab.ctx, elab.main)
        dcc_check(result.defs, EMPTY)
        ty = dcc_infer(result.defs, EMPTY, result.term)
        assert dcc_equiv(result.defs, ty, result.type_term)
        assert result.term == Label(0, ())

    def test_closure_arguments_typed_incrementally(self):
        # The declared type of the second closure slot mentions the first.
        ty = dcc_infer(PAIR_DEFS, EMPTY, Label(3, (NatType(), NatLit(3))))
        assert alpha_eq(ty, parse_term("(x : Nat) -> Nat"))

    def test_applied_label_has_its_entry_pi_type(self):
        ty = dcc_infer(PAIR_DEFS, EMPTY, Label(2, (Label(0, ()),)))
        assert alpha_eq(ty, parse_term("(n : Nat) -> Nat"))

    def test_closure_arity_mismatch(self):
        with pytest.raises(ClosureArity):
            dcc_infer(PAIR_DEFS, EMPTY, Label(2, ()))

    def test_closure_argument_type_mismatch(self):
        with pytest.raises(ClosureTypeMismatch):
            dcc_infer(PAIR_DEFS, EMPTY, Label(3, (NatType(), Universe(0))))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            dcc_infer(PAIR_DEFS, EMPTY, Label(99, ()))

    def test_closure_argument_variables_must_be_bound(self):
        with pytest.raises(UnboundVariable):
            dcc_infer(PAIR_DEFS, EMPTY, Label(3, (NatType(), Var("nope"))))


class TestReduce:
    def test_applied_label_unfolds_with_parallel_substitution(self, compose_st):
        elab, result = compose_st
        inner = result.defs.entries[0]  # innermost entry completes first
        closure = tuple(Var(n) for n, _ in inner.telescope)
        out = reduce_step(
            dcc_calculus(result.defs), App(Label(inner.label_id, closure), Var("x"))
        )
        assert alpha_eq(out, parse_term("f (g x)"))

    def test_partial_application_steps_to_next_closure(self, compose_st):
        elab, result = compose_st
        out = reduce_step(dcc_calculus(result.defs), App(result.term, Var("f")))
        assert isinstance(out, Label)
        assert out.args[-1] == Var("f")

    def test_label_beta_helper(self):
        out = label_beta(PAIR_DEFS, 2, (Label(0, ()),), NatLit(1))
        assert out == App(Label(0, ()), App(Label(0, ()), NatLit(1)))

    def test_pi_is_normal(self):
        assert reduce_step(dcc_calculus(PAIR_DEFS), parse_term("(x : Nat) -> Nat")) is None

    def test_bare_label_is_inert(self):
        assert reduce_step(dcc_calculus(PAIR_DEFS), Label(0, ())) is None

    def test_reduction_inside_closure_arguments(self):
        t = Label(3, (NatType(), Add(NatLit(1), NatLit(1))))
        assert dcc_normalize(PAIR_DEFS, t) == Label(3, (NatType(), NatLit(2)))

    def test_normalize_compose_chain(self, compose_st):
        elab, result = compose_st
        chain = App(App(App(result.term, Var("f")), Var("g")), Var("x"))
        assert alpha_eq(dcc_normalize(result.defs, chain),
                        parse_term("f (g x)"))

    def test_arithmetic(self):
        assert dcc_normalize(PAIR_DEFS, Add(NatLit(2), NatLit(3))) == NatLit(5)

    def test_trace_is_stepwise(self):
        t = App(Label(2, (Label(0, ()),)), NatLit(1))
        trace = reduce_trace(dcc_calculus(PAIR_DEFS), t, Budget(DEFAULT_BUDGET))
        assert trace[-1] == NatLit(3)
        for a, b in zip(trace, trace[1:]):
            assert reduce_step(dcc_calculus(PAIR_DEFS), a) == b


class TestEquiv:
    def test_distinct_labels_with_equal_definitions(self):
        # Nominally different labels; definitional equivalence sees through
        # them by applying both sides to a fresh argument.
        assert not alpha_eq(Label(0, ()), Label(1, ()))
        assert dcc_equiv(PAIR_DEFS, Label(0, ()), Label(1, ()))

    def test_one_step_related_terms(self):
        a = App(Label(0, ()), NatLit(1))
        assert dcc_equiv(PAIR_DEFS, a, NatLit(2))

    def test_translations_of_convertible_sources_are_equivalent(self, elaborated):
        elab = elaborated("typelevel_nat")
        t1 = parse_term("A (fun (n : Nat) => add 1 ((fun (x : Nat) => add 1 x) n))")
        t2 = parse_term("A (fun (n : Nat) => add 1 (add 1 n))")
        a, b, defs = shared_run(elab.ctx, t1, t2)
        assert not alpha_eq(a, b)
        assert dcc_equiv(defs, a, b)

    def test_distinct_ground_values_differ(self):
        assert not dcc_equiv(PAIR_DEFS, NatLit(1), NatLit(2))


class TestWellFormedness:
    def test_empty_is_well_formed(self):
        assert dcc_check(parse_dcc("Nat").labels, EMPTY) == 0  # raises nothing, spends no step

    def test_translated_contexts_are_well_formed(self, elaborated):
        elab = elaborated("compose_dependent")
        result = defun(elab.ctx, elab.main)
        defs = label_union(result.defs, result.type_defs)
        defs = label_union(defs, result.ctx_defs)
        dcc_check(defs, result.dcc_ctx)

    def test_body_must_match_declared_return_type(self):
        bad = parse_dcc(
            "label l0 {} (x : Type 0) -> Type 0 := Type 0;"
        ).labels
        with pytest.raises(TypeCheckError) as exc:
            dcc_check(bad, EMPTY)
        assert str(exc.value)

    def test_telescope_types_must_be_closed_by_prefix(self):
        bad = parse_dcc(
            "label l0 {a : A} (x : Nat) -> Nat := x;"
        ).labels
        with pytest.raises(TypeCheckError):
            dcc_check(bad, EMPTY)

    @pytest.mark.parametrize(
        "src,detail",
        [
            ("label l0 {} (x : A) -> Nat := 1;",
             "type of 'x' mentions later or unbound names ['A']"),
            ("label l0 {x : Nat} (x : Nat) -> Nat := x;", "context binds 'x' twice"),
            ("label l0 {x : 1} (y : Nat) -> Nat := y;",
             "type of 'x' is not a type: expected a type (a term of some universe): "
             "1 has type Nat"),
        ],
        ids=["argument-type-scope", "repeated-binder", "non-type-entry"],
    )
    def test_telescope_and_argument_binder_form_a_context(self, src, detail):
        with pytest.raises(TypeCheckError) as exc:
            dcc_check(parse_dcc(src).labels, EMPTY)
        assert str(exc.value) == f"closure telescope of l0: {detail}"

    def test_later_entries_may_reference_earlier_ones(self):
        defs = parse_dcc(
            """
            label l0 {} (x : Nat) -> Nat := add x 1;
            label l1 {} (x : Nat) -> Nat := l0{} (l0{} x);
            """
        ).labels
        dcc_check(defs, EMPTY)
        assert dcc_normalize(defs, parse_dcc("l1{} 1").main) == NatLit(3)


# Two entries restate the closed return type `l1{} Nat`.  Typing it reads the
# type of `l1{}` in normal form, which unfolds `l0{} (Type 0)` twice: 2 steps.
SHARED_RETURN = parse_dcc(
    """
    label l0 {} (A : Type 1) -> Type 1 := A;
    label l1 {} (B : l0{} (Type 0)) -> l0{} (Type 0) := B;
    label l2 {} (x : Nat) -> l1{} Nat := 0;
    label l3 {} (x : Nat) -> l1{} Nat := 1;
    """
).labels
# dcc_check's step counts as they were before the label check kept a table of
# closed terms; every other emitted corpus file and golden label file spends none
_STEPS = {"type_family_lambda": 1}


class TestClosedTable:
    """The label check types each closed term once, under all its label
    contexts (`check_labels`); no step count, verdict or exhaustion moves."""

    def test_emitted_and_golden_label_files_spend_the_same_steps(self, corpus_paths):
        for path in corpus_paths:
            elab = load_file(path)
            res = defun(elab.ctx, elab.main)
            emitted = parse_dcc(emit_text(res.labels, res.dcc_ctx, res.term)).elaborate()
            assert dcc_check(emitted.labels, emitted.ctx) == _STEPS.get(path.stem, 0), path
        golden = sorted(GOLDEN.glob("*.dcc"))
        assert len(golden) == len(corpus_paths)
        for path in golden:
            elab = load_file(path)
            assert dcc_check(elab.labels, elab.ctx) == _STEPS.get(path.stem, 0), path

    def test_a_restated_closed_type_charges_its_steps_each_time(self):
        entries = SHARED_RETURN.entries
        assert entries[2].ret_type == entries[3].ret_type
        steps = [dcc_check(LabelCtx(entries[:i]), EMPTY) for i in range(1, 5)]
        assert steps == [0, 0, 3, 6]
        for budget in range(1, 6):  # the last one short runs out in the table hit
            with pytest.raises(StepBudgetExceeded):
                dcc_check(SHARED_RETURN, EMPTY, budget)

    def test_a_closed_term_naming_a_later_label_fails_until_it_is_defined(self):
        t = App(Label(2, (Label(0),)), NatLit(1))  # closed, and names l2
        ctx, table = Ctx((("y", NatType()),)), {}
        for i in range(len(PAIR_DEFS) + 1):
            calc = dcc_calculus(LabelCtx(PAIR_DEFS.entries[:i]), table)
            if i <= 2:  # l2 is the third entry
                with pytest.raises(UnknownLabel):
                    infer(calc, ctx, t, Budget(DEFAULT_BUDGET))
                assert t not in table  # failures are not stored
            else:
                d = infer(calc, ctx, t, Budget(DEFAULT_BUDGET))
                assert d.type == NatType() and d.ctx == EMPTY and table[t][0] is d

    def test_the_60_lambda_chain_types_each_closed_type_once(self, scaling, monkeypatch):
        """Its label context restates 1,830 return-type nodes; the label check
        made 3,840 `infer` calls before it kept a table of closed terms."""
        ctx, main = scaling("lambdas", 60)
        res = defun(ctx, main)
        emitted = parse_dcc(emit_text(res.labels, res.dcc_ctx, res.term)).elaborate()
        calls = []
        real = kernel.infer

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernel, "infer", spy)
        monkeypatch.setattr(dcc_module, "infer", spy)
        assert dcc_check(emitted.labels, emitted.ctx) == 0
        assert len(calls) <= 450
