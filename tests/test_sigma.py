"""The explicit-substitution machine and its commuting-diagram checker."""

import dataclasses
import importlib

import pytest

from defuncc import kernel
from defuncc import sigma as sigma_module
from defuncc.cc import CC_TERMS, SIGMA, cc_infer, cc_normalize, cc_reduce_trace
from defuncc.defun import Translation, defun, label_subset
from defuncc.errors import DiagramFailure, StepBudgetExceeded, TypeMismatch
from defuncc.kernel import DEFAULT_BUDGET, Budget, normalize, reduce_step
from defuncc.sigma import (
    DiagramEdge,
    DiagramReport,
    ccs_equiv,
    ccs_infer,
    Judgement,
    ccs_reduce_trace,
    check_diagram,
)
from defuncc.surface import parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    ESubst,
    Label,
    Lam,
    NatLit,
    NatType,
    SBind,
    Universe,
    Var,
    alpha_eq,
    uses_only,
)

EMPTY = Ctx()
defun_module = importlib.import_module("defuncc.defun")


def nat_ctx(*names: str) -> Ctx:
    ctx = Ctx()
    for n in names:
        ctx = ctx.extend(n, NatType())
    return ctx


class TestEmbedAndSteps:
    def test_embedding_is_the_identity_on_source_terms(self):
        t = parse_term("fun (x : Nat) => add x 1")
        assert uses_only(t, CC_TERMS) and CC_TERMS <= SIGMA.allowed
        assert uses_only(ESubst(Var("x"), (SBind("x", NatType(), NatLit(1)),)), SIGMA.allowed)

    def test_beta_suspends_instead_of_substituting(self):
        t = parse_term("(fun (x : Nat) => add x 1) 3")
        out = reduce_step(SIGMA, t)
        assert out == ESubst(
            Add(Var("x"), NatLit(1)), (SBind("x", NatType(), NatLit(3)),)
        )

    def test_variable_lookup_resolves_suspension(self):
        t = ESubst(Var("x"), (SBind("x", NatType(), NatLit(3)),))
        assert reduce_step(SIGMA, t) == NatLit(3)

    def test_suspension_distributes_over_application(self):
        binds = (SBind("x", NatType(), NatLit(3)),)
        t = ESubst(App(Var("f"), Var("x")), binds)
        out = reduce_step(SIGMA, t)
        assert out == App(ESubst(Var("f"), binds), ESubst(Var("x"), binds))

    def test_suspended_lambda_is_a_value(self):
        # Functions do not reduce under their suspensions: a closure waits
        # for its argument.
        t = ESubst(
            Lam("y", NatType(), Add(Var("x"), Var("y"))),
            (SBind("x", NatType(), NatLit(3)),),
        )
        assert reduce_step(SIGMA, t) is None

    def test_applied_closure_extends_the_telescope(self):
        clo = ESubst(
            Lam("y", NatType(), Add(Var("x"), Var("y"))),
            (SBind("x", NatType(), NatLit(3)),),
        )
        out = reduce_step(SIGMA, App(clo, NatLit(4)))
        assert out == ESubst(
            Add(Var("x"), Var("y")),
            (SBind("x", NatType(), NatLit(3)), SBind("y", NatType(), NatLit(4))),
        )

    def test_machine_normal_forms_match_direct_normalization(self):
        t = parse_term(
            "(fun (f : Nat -> Nat) => fun (n : Nat) => f (f n)) "
            "(fun (x : Nat) => add x 1) 2"
        )
        assert normalize(SIGMA, t, Budget(DEFAULT_BUDGET)) == cc_normalize(t) == NatLit(4)

    def test_shadowed_binders_resolve_to_innermost(self):
        # Both lambdas bind x; the stale outer binding must not capture.
        t = parse_term(
            "(fun (x : Nat) => (fun (x : Nat) => add 2 x) "
            "((fun (x : Nat) => add 1 x) x)) 4"
        )
        assert normalize(SIGMA, t, Budget(DEFAULT_BUDGET)) == NatLit(7)
        assert cc_normalize(t) == NatLit(7)

    def test_trace_is_stepwise(self):
        t = parse_term("(fun (x : Nat) => add x 1) (add 1 1)")
        trace = ccs_reduce_trace(t)
        for a, b in zip(trace, trace[1:]):
            assert reduce_step(SIGMA, a) == b
        assert trace[-1] == NatLit(3)


class TestEquiv:
    def test_closure_equivalent_to_substituted_lambda(self):
        clo = ESubst(
            Lam("y", NatType(), Add(Var("x"), Var("y"))),
            (SBind("x", NatType(), NatLit(3)),),
        )
        assert ccs_equiv(clo, parse_term("fun (y : Nat) => add 3 y"))

    def test_equivalence_respects_values(self):
        a = ESubst(Var("x"), (SBind("x", NatType(), NatLit(1)),))
        assert ccs_equiv(a, NatLit(1))
        assert not ccs_equiv(a, NatLit(2))


class TestStateTyping:
    def test_suspended_term_types_like_its_contraction(self):
        state = ESubst(
            Add(Var("x"), NatLit(1)), (SBind("x", NatType(), NatLit(3)),)
        )
        d = ccs_infer(EMPTY, state)
        assert ccs_equiv(d.type, NatType())
        assert d.rule == "s-ty-Subst"

    def test_telescope_scoped_declared_types(self):
        # The closure declares f : A -> A where A is an earlier telescope
        # name; the state only types because declared types live inside
        # the telescope, not in the outer context.
        inc = parse_term("fun (n : Nat) => add 1 n")
        state = ESubst(
            Lam("a", Var("A"), App(Var("f"), Var("a"))),
            (
                SBind("A", Universe(0), NatType()),
                SBind("f", parse_term("A -> A"), inc),
            ),
        )
        d = ccs_infer(EMPTY, state)
        assert ccs_equiv(d.type, parse_term("Nat -> Nat"))

    def test_every_state_of_a_trace_is_typable(self):
        t = parse_term(
            "(fun (A : Type 0) => fun (f : A -> A) => fun (a : A) => f (f a)) "
            "Nat (fun (n : Nat) => add 1 n) 3"
        )
        ty = cc_infer(EMPTY, t).type
        states = ccs_reduce_trace(t)
        assert states[-1] == NatLit(5)
        for s in states:
            d = ccs_infer(EMPTY, s)
            assert ccs_equiv(d.type, ty)


class TestStateTranslation:
    def test_suspension_translates_to_substituted_label_closure(self):
        # Translating (fun (x : B) => y){y -> b} substitutes the translated
        # value into the label's closure arguments.
        ctx = Ctx().extend("B", Universe(0)).extend("b", Var("B"))
        state = ESubst(
            Lam("x", Var("B"), Var("y")), (SBind("y", Var("B"), Var("b")),)
        )
        run = Translation(DEFAULT_BUDGET)
        term, pids = run.translate(ccs_infer(ctx, state))
        ren = run.finalize()
        out = ren.term(term)
        assert out == Label(0, (Var("B"), Var("b")))
        entry = ren.label_ctx(pids).lookup(0)
        assert [n for n, _ in entry.telescope] == ["B", "y"]
        assert entry.body == Var("y")

    def test_machine_states_translate_like_their_sources(self, elaborated):
        # a source term is its own first state: its sigma-derivation,
        # translated in the source translation's run, gives the same term
        elab = elaborated("compose_simply_typed")
        assert uses_only(elab.main, CC_TERMS)
        res = defun(elab.ctx, elab.main)
        ((embedded, _),), _ = res.translate_many((ccs_infer(elab.ctx, elab.main),))
        assert alpha_eq(embedded, res.term)

    def test_state_definitions_stay_within_source_definitions(self):
        # Label ids are meaningful within one minting scope, so the source
        # and every machine state share a single translation run.
        t = parse_term("(fun (x : Nat) => (fun (y : Nat) => add x y) 2) 3")
        run = Translation(DEFAULT_BUDGET)
        _, source_pids = run.translate(ccs_infer(EMPTY, t))
        state_pids = [
            run.translate(ccs_infer(EMPTY, state))[1]
            for state in ccs_reduce_trace(t)
        ]
        ren = run.finalize()
        source_defs = ren.label_ctx(source_pids)
        assert len(source_defs.entries) == 2
        for pids in state_pids:
            assert label_subset(ren.label_ctx(pids), source_defs)


class TestDiagram:
    def test_ground_program(self):
        t = parse_term(
            "(fun (f : Nat -> Nat) => fun (g : Nat -> Nat) => "
            "fun (x : Nat) => f (g x)) (fun (a : Nat) => add a 1) "
            "(fun (b : Nat) => add b 2) 1"
        )
        report = check_diagram(Judgement(EMPTY, t))
        assert report.ok
        assert report.cc_steps > 0
        assert report.sigma_steps >= report.cc_steps
        assert report.labels > 0

    def test_single_step_program(self):
        report = check_diagram(Judgement(EMPTY, parse_term("(fun (x : Nat) => x) 1")))
        assert report.ok
        assert report.cc_steps == 1

    def test_a_pushed_product_does_not_capture_the_value(self):
        # the suspension x |-> y pushed into (y : Type 0) -> x must rename the
        # product's binder, or y in the value is captured and the state no
        # longer converts to the source reduct (y' : Type 0) -> y
        ctx = EMPTY.extend("y", Universe(0))
        t = parse_term("(fun (x : Type 0) => (y : Type 0) -> x) y")
        report = check_diagram(Judgement(ctx, t), raise_on_failure=False)
        assert report.ok, report.edges

    def test_type_level_program_counts_suspension_nodes(self, elaborated):
        elab = elaborated("typelevel_nat")
        report = check_diagram(Judgement(elab.ctx, elab.main))
        assert report.ok
        assert report.subst_nodes > 0

    def test_types_read_under_a_suspended_binder_type(self):
        # the suspension pushed into the Pi leaves A : Type 0{B |-> Nat} in the
        # context where the types of f and a are read, so those suspension-free
        # types still need suspension-calculus inference
        ctx = EMPTY.extend("Q", parse_term("(A : Type 0) -> A -> Type 0"))
        t = parse_term(
            "(fun (B : Type 0) => (A : Type 0) -> (f : A -> A) -> (a : A) -> Q A (f a)) Nat"
        )
        report = check_diagram(Judgement(ctx, t))
        assert report.ok
        assert report.sigma_steps > report.cc_steps

    @pytest.mark.xfail(
        strict=True,
        raises=TypeMismatch,
        reason="cc._ty_subst types a suspension's subject under its names as bare "
        "assumptions, while an entry pushed past the same suspension carries the "
        "value, so f a has type Nat where Q expects B",
    )
    def test_codomain_mentioning_the_suspended_name(self):
        ctx = EMPTY.extend("Q", parse_term("(A : Type 0) -> A -> Type 0"))
        t = parse_term(
            "(fun (B : Type 0) => (A : Type 0) -> (f : A -> B) -> (a : A) -> Q B (f a)) Nat"
        )
        assert check_diagram(Judgement(ctx, t)).ok

    def test_report_mode_ends_at_an_untyped_state(self):
        # the program above: report mode returns the edges made before state
        # 4, then one failing edge that names the state sigma-inference rejects
        ctx = EMPTY.extend("Q", parse_term("(A : Type 0) -> A -> Type 0"))
        t = parse_term(
            "(fun (B : Type 0) => (A : Type 0) -> (f : A -> B) -> (a : A) -> Q B (f a)) Nat"
        )
        report = check_diagram(Judgement(ctx, t), raise_on_failure=False)
        assert dataclasses.replace(report, subst_nodes=0) == DiagramReport(
            ok=False,
            edges=(
                DiagramEdge("sigma-simulates-cc-step", True, "1 source step(s)"),
                DiagramEdge(
                    "sigma-reaches-cc-normal-form",
                    True,
                    "sigma-normal form of the embedding vs the source normal form",
                ),
                DiagramEdge(
                    "sigma-states-typed",
                    False,
                    "state 4: type mismatch in argument: expected B, got Nat",
                ),
            ),
            cc_steps=1,
            sigma_steps=16,
            labels=1,
            subst_nodes=0,
        )

    def test_all_edges_are_reported(self):
        report = check_diagram(Judgement(EMPTY, parse_term("(fun (x : Nat) => x) 1")))
        names = {e.name for e in report.edges}
        assert "sigma-simulates-cc-step" in names
        assert "defs-monotone-along-sigma-step" in names
        assert "dcc-coherence" in names
        assert all(e.ok for e in report.edges)

    def test_failure_reporting_mode(self):
        # raise_on_failure=False returns a report instead of raising; a
        # healthy program still reports ok and DiagramFailure stays unused.
        report = check_diagram(
            Judgement(EMPTY, parse_term("add 1 1")), raise_on_failure=False
        )
        assert report.ok
        assert isinstance(DiagramFailure("edge", "detail"), Exception)


class TestTraceTable:
    """check_diagram derives the states of a trace through the run's σ table,
    so a state derives only what its step rebuilt.  That must change nothing:
    each derivation equals a fresh one, and a small budget runs out on the
    same states."""

    @pytest.fixture(scope="class")
    def programs(self, corpus_judgements, scaling_programs):
        """The corpus judgements and the scaling programs."""
        return [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()

    def test_the_diagrams_derivations_equal_fresh_ones(self, programs, monkeypatch):
        calls = []
        s_infer = sigma_module._s_infer

        def recording(ctx, t, b, calc=SIGMA):
            calls.append((ctx, t, calc, s_infer(ctx, t, b, calc)))
            return calls[-1][-1]

        monkeypatch.setattr(sigma_module, "_s_infer", recording)
        shared = 0
        for ctx, term in programs:
            calls.clear()
            j = Judgement(ctx, term)
            assert check_diagram(j).ok
            diagram = list(calls)  # ccs_infer below records its calls too
            assert [t for _, t, _, _ in diagram] == ccs_reduce_trace(term)
            assert len({id(calc) for _, _, calc, _ in diagram}) == 1
            assert diagram[0][2] is j.translation().run.sigma
            for c, t, _, d in diagram:
                assert d == ccs_infer(c, t)
            shared += len(diagram) > 1
        assert shared > 10

    def test_states_and_sigma_type_reads_share_the_runs_table(self, programs, monkeypatch):
        """The σ types the run reads and the diagram's states are derived in
        one table, the run's; the diagram check makes none of its own."""
        reads = []
        infer = defun_module.infer

        def recording(calc, ctx, t, b):
            if calc.name == SIGMA.name:
                reads.append(calc)
            return infer(calc, ctx, t, b)

        monkeypatch.setattr(defun_module, "infer", recording)
        with_reads = 0
        for ctx, term in programs:
            reads.clear()
            j = Judgement(ctx, term)
            assert check_diagram(j).ok
            sigma = j.translation().run.sigma
            assert all(calc is sigma for calc in reads)
            assert all((ctx, x) in sigma.table for x in ccs_reduce_trace(term))
            with_reads += bool(reads)
        assert with_reads > 0

    def test_a_budget_runs_out_on_the_same_states(self, programs):
        def exhausted(ctx, states, calc, budget):
            out = []
            for i, x in enumerate(states):
                try:
                    sigma_module._s_infer(ctx, x, Budget(budget), calc)
                except StepBudgetExceeded:
                    out.append(i)
            return out

        runs_out = 0
        for ctx, term in programs:
            states = ccs_reduce_trace(term)
            for budget in (3, 5, 8, 12, 20, 30):
                with_table = dataclasses.replace(SIGMA, table={})
                spent = exhausted(ctx, states, with_table, budget)
                assert spent == exhausted(ctx, states, SIGMA, budget), (term, budget)
                runs_out += 0 < len(spent) < len(states)
        assert runs_out > 0


class TestStepEdges:
    """The step edges decide a step pair at the step's hole first: it holds if
    the deepest differing nodes are α-equal, or if one of the path's nodes
    contracts to what meets the other side by pushing suspensions.  That rule
    must be sound (what it accepts converts as whole states) and must fire:
    on the corpus, on `twice` k=1..3 and (σ) on the Add chain, neither step
    edge normalizes a state."""

    @staticmethod
    def step_pairs(judgements, monkeypatch) -> list[tuple]:
        """Every step pair the diagram checks of `judgements` compare, as
        (calculus, redex, reduct, answer, whether the comparison normalized
        anything); a pair the rule leaves open normalizes its reduct."""
        normalized, pairs = [], []
        normalize, real_step = kernel.normalize, sigma_module.convertible_step

        def counting(calc, t, b):
            normalized.append(calc)
            return normalize(calc, t, b)

        def spied(calc, a, c, limit):
            before = len(normalized)
            answer = real_step(calc, a, c, limit)
            pairs.append((calc, a, c, answer, len(normalized) > before))
            return answer

        monkeypatch.setattr(kernel, "normalize", counting)
        monkeypatch.setattr(sigma_module, "convertible_step", spied)
        for ctx, term in judgements:
            assert check_diagram(Judgement(ctx, term)).ok
        monkeypatch.undo()
        return pairs

    def test_what_the_rule_accepts_converts_as_whole_states(
        self, corpus_judgements, scaling_programs, enumerated, monkeypatch
    ):
        judgements = [(ctx, term) for _, ctx, term in corpus_judgements]
        judgements += scaling_programs() + list(enumerated)
        pairs = self.step_pairs(judgements, monkeypatch)
        accepted = [(calc, a, c) for calc, a, c, answer, whole in pairs if answer and not whole]
        # every step pair of these judgements is decided at its hole today, and
        # once: 326 on the σ edge (one per source step), 645 on the DCC edge
        assert len(accepted) == len(pairs)
        source_steps = sum(len(cc_reduce_trace(term)) - 1 for _, term in judgements)
        assert sum(calc is SIGMA for calc, *_ in pairs) == source_steps
        assert sum(calc is SIGMA for calc, _, _ in accepted) >= 326
        assert sum(calc is not SIGMA for calc, _, _ in accepted) >= 645
        for calc, a, c in accepted:
            assert kernel.convertible(calc, a, c, Budget(DEFAULT_BUDGET)), (a, c)

    @staticmethod
    def whole_state_pairs(pairs, sigma: bool) -> list[tuple]:
        chosen = [p for p in pairs if (p[0] is SIGMA) == sigma]
        assert len(chosen) > 100
        return [(a, c) for _, a, c, _, whole in chosen if whole]

    def test_the_dcc_edge_normalizes_no_state(self, corpus_judgements, scaling, monkeypatch):
        judgements = [(ctx, term) for _, ctx, term in corpus_judgements]
        judgements += [scaling("twice", k) for k in (1, 2, 3)]
        pairs = self.step_pairs(judgements, monkeypatch)
        assert self.whole_state_pairs(pairs, sigma=False) == []

    def test_the_sigma_edge_normalizes_no_state(self, corpus_judgements, scaling, monkeypatch):
        judgements = [(ctx, term) for _, ctx, term in corpus_judgements]
        judgements += [scaling("twice", k) for k in (1, 2, 3)] + [scaling("add", 50)]
        pairs = self.step_pairs(judgements, monkeypatch)
        assert self.whole_state_pairs(pairs, sigma=True) == []


class TestAgainstSource:
    @pytest.mark.parametrize(
        "source",
        [
            "(fun (x : Nat) => add x 1) 3",
            "(fun (x : Nat) => (fun (y : Nat) => add x y) 2) 3",
            "(fun (f : Nat -> Nat) => f (f 1)) (fun (n : Nat) => add n n)",
        ],
    )
    def test_machine_agrees_with_source_reduction(self, source):
        t = parse_term(source)
        assert normalize(SIGMA, t, Budget(DEFAULT_BUDGET)) == cc_normalize(t)
        assert len(ccs_reduce_trace(t)) >= len(cc_reduce_trace(t))
