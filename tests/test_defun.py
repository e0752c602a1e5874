"""Forward translation: lambdas become labels carrying their closures."""

import dataclasses
import importlib
import inspect
import operator
import sys
import weakref

import pytest

from defuncc.cc import CC, CC_TERMS, SIGMA, cc_infer
from defuncc.defun import (
    Translation,
    defun,
    label_subset,
    label_union,
)
from defuncc.errors import IllFormedContext, LabelClash
from defuncc.harness import check_reduction_preservation
from defuncc.kernel import DEFAULT_BUDGET
from defuncc.sigma import Judgement, check_diagram
from defuncc.surface import parse_dcc, parse_source, parse_term
from defuncc.syntax import (
    Add,
    App,
    Ctx,
    ESubst,
    Label,
    LabelCtx,
    Lam,
    NatLit,
    NatType,
    Pi,
    SBind,
    Universe,
    Var,
    alpha_eq,
    canon,
    entry_canon,
    map_children,
    subst_many,
    uses_only,
)

EMPTY = Ctx()
# the module, which the package's `defun` function shadows as an attribute
defun_module = importlib.import_module("defuncc.defun")
harness_module = importlib.import_module("defuncc.harness")
syntax_module = importlib.import_module("defuncc.syntax")


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
    """The context's translation, read off a judgement on the closed term Type 0."""

    def test_empty(self):
        result = defun(EMPTY, Universe(0))
        assert result.dcc_ctx == EMPTY
        assert result.ctx_defs.entries == ()

    def test_lambda_free_context_is_unchanged(self):
        src = Ctx().extend("A", Universe(0)).extend(
            "f", parse_term("A -> A")
        )
        result = defun(src, Universe(0))
        assert result.dcc_ctx == src
        assert result.ctx_defs.entries == ()

    def test_repeated_name_is_rejected_before_translation(self):
        src = Ctx((("A", Universe(0)), ("A", Universe(0))))
        with pytest.raises(IllFormedContext, match="context binds 'A' twice"):
            defun(src, Universe(0))


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

    def test_an_entry_compared_with_itself_builds_no_key(self, elaborated, monkeypatch):
        """The weakening check compares a run's labels with a union holding the
        same entry objects; each such comparison answers at once."""
        elab = elaborated("compose_dependent")
        d = defun(elab.ctx, elab.main).labels
        extra = parse_dcc("label l9 {} (x : Nat) -> Nat := x;").labels
        keys = []
        entry_canon = syntax_module.entry_canon

        def spy(e):
            keys.append(e)
            return entry_canon(e)

        monkeypatch.setattr(syntax_module, "entry_canon", spy)
        assert len(d) > 1
        assert label_subset(d, label_union(d, extra))
        assert keys == []
        # an equal entry that is another object is still compared by its key
        assert label_subset(self.D1, self.D2) and len(keys) == 2


class TestDeterminism:
    def test_repeated_runs_agree(self, elaborated):
        elab = elaborated("compose_dependent")
        first = defun(elab.ctx, elab.main)
        second = defun(elab.ctx, elab.main)
        assert first == second

    def test_expr_and_defs_match_full_run(self, elaborated):
        elab = elaborated("compose_simply_typed")
        result = defun(elab.ctx, elab.main)
        assert defun(elab.ctx, elab.main).term == result.term
        assert defun(elab.ctx, elab.main).defs == result.defs


class TestFinalize:
    def test_a_second_finalize_grows_the_first_renumbering(self):
        """The run keeps one Renumbering: a later finalize() extends it, so
        the entries and terms an earlier one gave out come back as they were."""
        run = Translation(DEFAULT_BUDGET)
        outer = parse_term("fun (x : Nat) => fun (y : Nat) => x")
        term, pids = run.translate(cc_infer(Ctx(), outer))
        ren = run.finalize()
        first_term, first_entries = ren.term(term), ren.label_ctx(pids).entries
        later, later_pids = run.translate(cc_infer(Ctx(), parse_term("fun (z : Nat) => z")))
        again = run.finalize()
        assert again is ren
        assert again.term(term) is first_term
        assert all(map(operator.is_, again.label_ctx(pids).entries, first_entries))
        assert [e.label_id for e in again.label_ctx(later_pids)] == [2]
        assert again.term(later) == Label(2, ())


class TestBudget:
    def test_every_derivation_gets_the_callers_budget(self, elaborated, monkeypatch):
        """The derivations the translation walks, the judgement's and the
        types it re-derives, are each built under a fresh budget with the
        limit `defun` was given."""
        real_cc_infer = defun_module.cc_infer
        signature = inspect.signature(real_cc_infer)
        real_infer = defun_module.infer
        budgets = []

        def spy_cc_infer(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            budgets.append((bound.arguments["budget"], 0))
            return real_cc_infer(*args, **kwargs)

        def spy_infer(calc, ctx, t, b):
            budgets.append((b.limit, b.used))
            return real_infer(calc, ctx, t, b)

        monkeypatch.setattr(defun_module, "cc_infer", spy_cc_infer)
        monkeypatch.setattr(defun_module, "infer", spy_infer)
        elab = elaborated("typelevel_nat")
        defun(elab.ctx, elab.main, budget=5000)
        assert len(budgets) > 2
        assert set(budgets) == {(5000, 0)}


class _AlwaysDerive(Translation):
    """The translation without its tables: every type it reads is derived
    afresh, by the source or σ calculus with no inference table, and every
    derivation is walked again however often it comes."""

    def __init__(self, budget):
        super().__init__(budget)
        self._cc, self.sigma = CC, SIGMA

    def _walk(self, deriv, facts):
        self._done.pop(id(deriv), None)  # never answered by the identity table
        return super()._walk(deriv, facts)


def _use_translation(monkeypatch, cls) -> None:
    """Make every run with `cls`: only `defun` makes one."""
    monkeypatch.setattr(defun_module, "Translation", cls)


class TestTypeMemo:
    def test_each_type_is_derived_once_per_run(self, corpus_judgements, monkeypatch):
        """defun, reduction preservation and the diagram check (which both go
        on in their judgement's defun run) each derive every distinct
        (ctx, type) at most once per run: a repeat read gets the first
        derivation object back."""
        runs: list[dict] = []

        class Spy(Translation):
            def __init__(self, budget):
                self.seen: dict = {}
                runs.append(self.seen)
                super().__init__(budget)

            def _derive(self, ctx, facts, ty):
                d = super()._derive(ctx, facts, ty)
                self.seen.setdefault((ctx, ty), []).append(d)
                return d

        _use_translation(monkeypatch, Spy)
        repeated = []
        for name, ctx, term in corpus_judgements:
            start = len(runs)
            harness_module._judgement.cache_clear()  # its defun run must be spied on
            defun(ctx, term)
            check_reduction_preservation(ctx, term)
            check_diagram(Judgement(ctx, term))
            assert len(runs) - start >= 3
            repeated += [
                name
                for seen in runs[start:]
                for derivs in seen.values()
                if any(d is not derivs[0] for d in derivs)
            ]
        assert repeated == []
        reads = [len(derivs) for seen in runs for derivs in seen.values()]
        assert reads and max(reads) > 1

    def test_a_source_type_read_twice_is_derived_and_walked_once(self, monkeypatch):
        """Within one run, a source type read twice costs one miss in the
        run's source table and one `translate` walk: the second read gets
        the same derivation back, and the identity table answers for it."""
        ty = parse_term("(fun (A : Type 0) => A) Nat")
        misses, walks = [], []
        real_infer = defun_module.infer

        def spy_infer(calc, ctx, t, b):
            if (ctx, t) not in calc.table:
                misses.append(t)
            return real_infer(calc, ctx, t, b)

        class Spy(Translation):
            def _translate_lambda(self, deriv, facts):
                walks.append(deriv.subject)
                return super()._translate_lambda(deriv, facts)

        monkeypatch.setattr(defun_module, "infer", spy_infer)
        run, facts = Spy(DEFAULT_BUDGET), reference_ctx_facts(EMPTY)
        first = run._translate_type(EMPTY, facts, ty)
        assert run._translate_type(EMPTY, facts, ty) == first
        assert first[1] == (0,)
        assert run._derive(EMPTY, facts, ty) is run._derive(EMPTY, facts, ty)
        assert misses == [ty]
        assert len(walks) == 1

    def test_a_derivation_translated_before_reads_no_context_entry(self, elaborated, monkeypatch):
        """A root call the identity table answers grows no context facts."""
        elab = elaborated("open_add")
        assert len(elab.ctx) > 0
        run, deriv = Translation(DEFAULT_BUDGET), cc_infer(elab.ctx, elab.main)
        first = run.translate(deriv)
        grown = []
        monkeypatch.setattr(defun_module, "_grow", lambda *args: grown.append(args))
        assert run.translate(deriv) is first
        assert grown == []

    def test_memo_changes_no_output(
        self, corpus_judgements, scaling_programs, enumerated, monkeypatch
    ):
        """With and without the run's tables, every translation result is
        equal, and every diagram report is equal apart from its suspension
        count."""
        judgements = [(ctx, term) for _, ctx, term in corpus_judgements]
        judgements += enumerated
        judgements += scaling_programs()

        def outputs():
            return [
                (
                    defun(ctx, term),
                    dataclasses.replace(
                        check_diagram(Judgement(ctx, term), raise_on_failure=False),
                        subst_nodes=0,
                    ),
                )
                for ctx, term in judgements
            ]

        memo = outputs()
        _use_translation(monkeypatch, _AlwaysDerive)
        plain = outputs()
        assert len(plain) == len(memo) > 2525
        assert [i for i, (a, b) in enumerate(zip(memo, plain)) if a != b] == []


def _forced(t):
    """t with every suspension carried out, as the translation carries it out."""
    if isinstance(t, ESubst):
        return subst_many(_forced(t.subject), {sb.name: _forced(sb.value) for sb in t.bindings})
    return map_children(_forced, t)


class TestLabelFreeReads:
    def test_skipped_type_reads_mint_nothing(
        self, corpus_judgements, scaling_programs, monkeypatch
    ):
        """A type read only for its definitions (at a variable, an application
        or a conversion) is not derived when neither it nor its context holds
        a lambda.  Its full translation would give no definitions and the type
        itself up to renaming, its suspensions carried out."""
        skipped: set = set()
        derived: list = []
        translate_type = Translation._translate_type

        class Spy(Translation):
            def _translate_type(self, ctx, facts, ty):
                derived.append((ctx, ty))
                return translate_type(self, ctx, facts, ty)

            def _type_labels(self, ctx, facts, ty):
                before = len(derived)
                out = super()._type_labels(ctx, facts, ty)
                if len(derived) == before:
                    skipped.add((ctx, facts, ty))
                return out

        _use_translation(monkeypatch, Spy)
        programs = [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()
        for ctx, term in programs:
            harness_module._judgement.cache_clear()  # its defun run must be spied on
            results = [check(ctx, term) for check in harness_module.ALL_CHECKS]
            assert all(r.ok for r in results), [r.line() for r in results]
        assert len(skipped) > 100
        assert any(isinstance(ty, ESubst) for *_, ty in skipped)
        minting = []
        for ctx, facts, ty in skipped:
            term, pids = translate_type(Translation(DEFAULT_BUDGET), ctx, facts, ty)
            if pids or not alpha_eq(term, _forced(ty)):
                minting.append((ctx, ty))
        assert minting == []


class TestPlainTypes:
    def test_plain_reads_are_their_own_translation(
        self, corpus_judgements, scaling_programs, enumerated, monkeypatch
    ):
        """A type the walk reads whole (a closure telescope type, a return
        type, a context entry, the judgement's type) is not derived when it
        and its context are plain (see `Translation`).  Deriving it would
        spend no step, and translating that derivation would give the type
        itself, `==`, with no definitions."""
        answered: dict = {}
        derived: list = []

        class Spy(Translation):
            def _derive(self, ctx, facts, ty):
                derived.append((ctx, ty))
                return super()._derive(ctx, facts, ty)

            def _translate_type(self, ctx, facts, ty):
                before = len(derived)
                out = super()._translate_type(ctx, facts, ty)
                if len(derived) == before:  # not derived
                    answered[ctx, facts, ty] = out
                return out

        _use_translation(monkeypatch, Spy)
        programs = [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()
        programs += enumerated
        # a context type holding a lambda: the plain-looking `P y` read under it is derived
        lam_ctx = parse_source(
            "axiom P : ((fun (A : Type 0) => A) Nat) -> Type 0;\n"
            "axiom q : (n : Nat) -> P n;\n"
            "fun (y : Nat) => fun (z : Nat) => q y\n"
        ).elaborate()
        programs.append((lam_ctx.ctx, lam_ctx.main))
        assert len(programs) == 50 + 15 + 2525 + 1
        for ctx, term in programs:
            report = check_diagram(Judgement(ctx, term), raise_on_failure=False)
            assert report.ok, report.edges
        assert len(answered) > 1000
        wrong = []
        for (ctx, facts, ty), out in answered.items():
            run = Translation(0)  # a derivation that spends a step raises
            if out != (ty, ()) or run.translate(run._derive(ctx, facts, ty)) != (ty, ()):
                wrong.append((ctx, ty))
        assert wrong == []

    @pytest.mark.parametrize(
        "ctx, ty",
        [
            (EMPTY, "(x : Nat) -> (x : Nat) -> Nat"),  # `x` is bound under `x`
            (Ctx((("x", parse_term("Nat")),)), "(x : Nat) -> Nat"),  # `x` is in the context
        ],
    )
    def test_a_rebound_binder_is_derived(self, ctx, ty):
        """A type that binds a name already bound where it binds it is not
        plain: its derivation renames the binder, so the type is not its own
        translation."""
        ty = parse_term(ty)
        derived = []

        class Spy(Translation):
            def _derive(self, ctx, facts, ty):
                derived.append((ctx, ty))
                return super()._derive(ctx, facts, ty)

        term, pids = Spy(DEFAULT_BUDGET)._translate_type(ctx, reference_ctx_facts(ctx), ty)
        assert pids == () and alpha_eq(term, ty) and term != ty
        assert derived == [(ctx, ty)]

    def test_an_arrow_chain_is_plain(self):
        """The anonymous binder `_` is never renamed (`kernel.infer`), so an
        arrow type that binds it under itself is its own translation and is
        not derived."""
        ty = parse_term("Nat -> Nat -> Nat")
        derived = []

        class Spy(Translation):
            def _derive(self, ctx, facts, ty):
                derived.append((ctx, ty))
                return super()._derive(ctx, facts, ty)

        facts = reference_ctx_facts(EMPTY)
        assert Spy(DEFAULT_BUDGET)._translate_type(EMPTY, facts, ty) == (ty, ())
        assert derived == []
        run = Translation(DEFAULT_BUDGET)
        assert run.translate(run._derive(EMPTY, facts, ty)) == (ty, ())

    def test_the_lambda_chain_derives_no_type(self, scaling, monkeypatch):
        """Every type `defun` reads on nested lambdas over Nat is plain, so
        none is derived (without the plain-type copy, n=60 derives 120)."""
        derived = []

        class Spy(Translation):
            def _derive(self, ctx, facts, ty):
                derived.append(ty)
                return super()._derive(ctx, facts, ty)

        _use_translation(monkeypatch, Spy)
        ctx, term = scaling("lambdas", 60)
        assert len(defun(ctx, term).labels) == 60
        assert derived == []


def reference_ctx_facts(ctx: Ctx):
    """A context's facts from scratch: every type of the context read again."""
    types = [a for _, a in ctx]
    plain = all(uses_only(a, defun_module._PLAIN) for a in types)
    lam_free = plain or all(uses_only(a, defun_module._LAM_FREE) for a in types)
    source = all(uses_only(a, CC_TERMS) for a in types)
    return lam_free, frozenset(ctx.names()) if plain else None, source


def reference_is_plain(ty, names: frozenset[str]) -> bool:
    """The plain-type walk the run's binder table replaced, kept verbatim:
    ty is built from `_PLAIN` alone, and no `Pi` binder of it other than
    `_` is in `names` or binds a name that an enclosing `Pi` binds over it."""
    enclosing: set[str] = set()  # the binders of the Pis whose codomain is being walked
    stack: list = [ty]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is str:  # the codomain of the Pi binding t is done
            enclosing.remove(t)
        elif cls is Pi and t.binder == "_":  # never renamed (`kernel.infer`)
            stack += (t.domain, t.codomain)
        elif cls is Pi:
            x = t.binder
            if x in names or x in enclosing:
                return False
            enclosing.add(x)
            stack += (t.domain, x, t.codomain)  # the domain comes after x is released
        elif cls is App:
            stack += (t.fn, t.arg)
        elif cls not in defun_module._PLAIN:
            return False
    return True


def _read_spy():
    """A run class that records each type read, and the two lists it records
    into: every read's context with the facts the walk carries with it, and,
    for a read whole under a plain context, the type, the context's names
    and whether the run copied it."""
    facts, reads = [], []

    class Spy(Translation):
        derived = 0

        def _derive(self, ctx, ctx_facts, ty):
            self.derived += 1
            return super()._derive(ctx, ctx_facts, ty)

        def _type_labels(self, ctx, ctx_facts, ty):
            facts.append((ctx, ctx_facts))
            return super()._type_labels(ctx, ctx_facts, ty)

        def _translate_type(self, ctx, ctx_facts, ty):
            facts.append((ctx, ctx_facts))
            before = self.derived
            out = super()._translate_type(ctx, ctx_facts, ty)
            if ctx_facts[1] is not None:
                reads.append((ty, ctx_facts[1], self.derived == before))
            return out

    return Spy, facts, reads


@pytest.fixture(scope="module")
def shortcut_reads(corpus_judgements, scaling_programs, enumerated):
    """What the shortcuts read while the diagram check (and with it `defun`)
    runs over the corpus, the scaling families and the enumeration: every
    context a type is read under with the facts carried with it, and every
    plain-context type read whole with its context's names and whether the
    run copied it."""
    programs = [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()
    programs += enumerated
    # σ-states that push a suspension into a Π: its codomain is read under a
    # context whose last entry is a suspension, so not of source terms
    for text in ("(fun (B : Type 0) => (a : B) -> B) Nat",
                 "axiom P : Nat -> Type 0;\n(fun (n : Nat) => (p : P n) -> P n) 3"):
        elab = parse_source(text + "\n").elaborate()
        programs.append((elab.ctx, elab.main))
    spy, facts, reads = _read_spy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(defun_module, "Translation", spy)
        for ctx, term in programs:
            report = check_diagram(Judgement(ctx, term), raise_on_failure=False)
            assert report.ok, report.edges
    return facts, reads


class TestShortcutFacts:
    """The facts the walk carries with each context, and the run's table of
    plain binders, give what the from-scratch walks give on every read."""

    def test_kept_facts_are_the_facts(self, shortcut_reads):
        facts, _ = shortcut_reads
        assert len({id(ctx) for ctx, _ in facts}) > 1000
        kinds = {(lam_free, names is None) for _, (lam_free, names, _) in facts}
        assert kinds == {(True, False), (True, True), (False, True)}
        assert {source for _, (_, _, source) in facts} == {True, False}
        assert [(ctx, out) for ctx, out in facts if out != reference_ctx_facts(ctx)] == []

    def test_the_binder_table_agrees_with_the_walk(self, shortcut_reads):
        _, reads = shortcut_reads
        assert len(reads) > 1000
        assert {plain for *_, plain in reads} == {True, False}
        assert [r for r in reads if reference_is_plain(r[0], r[1]) != r[2]] == []

    def test_a_context_adds_its_last_entry_to_its_parents_facts(self):
        """Growing a context's facts by one entry reads that entry's type
        alone; the facts of a context grown from nothing read all of them."""
        base = Ctx((("A", Universe(0)), ("n", NatType())))
        base_facts = defun_module._grow(defun_module._EMPTY_FACTS, base.entries)
        assert base_facts == reference_ctx_facts(base)
        suspended = ESubst(Var("k"), (SBind("k", NatType(), NatLit(1)),))
        for x, ty in (("m", NatType()), ("f", parse_term("(fun (A : Type 0) => A) Nat")),
                      ("s", suspended)):
            made = base.extend(x, ty)
            seen = []

            def spy(t, allowed, uses_only=uses_only):
                seen.append(t)
                return uses_only(t, allowed)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(defun_module, "uses_only", spy)
                assert defun_module._grow(base_facts, ((x, ty),)) == reference_ctx_facts(made)
                assert {id(t) for t in seen} == {id(made.entries[-1][1])}
                seen.clear()
                grown = defun_module._grow(defun_module._EMPTY_FACTS, made.entries)
                assert grown == reference_ctx_facts(made)
                assert {id(t) for t in seen} == {id(a) for _, a in made}

    def test_no_kept_context_keeps_the_chain_it_was_built_from(self):
        """A context `extend` made holds no link to its parent, and a file's
        axioms and a translated context are built whole: no chain of N
        contexts, each with its own N-long entries, stays alive behind the
        last one."""
        n = 300
        made = [Ctx()]
        for i in range(n):
            made.append(made[-1].extend(f"x{i}", NatType()))
        last, earlier = made[-1], [weakref.ref(c) for c in made[:-1]]
        del made
        assert [ref for ref in earlier if ref() is not None] == []
        assert set(vars(last)) <= {"entries", "_hash"} and len(last) == n
        facts = defun_module._grow(defun_module._EMPTY_FACTS, last.entries)
        assert facts == reference_ctx_facts(last)
        source = parse_source("".join(f"axiom x{i} : Nat -> Nat;\n" for i in range(n)) + "x0")
        elaborated = source.elaborate()
        assert len(elaborated.ctx) == n
        result = defun(elaborated.ctx, elaborated.main)
        out, _ = result.run.translate_context(elaborated.ctx)
        assert len(out) == len(result.dcc_ctx) == n
        kept = (elaborated.ctx, out, result.dcc_ctx)
        assert [c for c in kept if not set(vars(c)) <= {"entries", "_hash"}] == []

    def test_a_read_context_holds_nothing_but_its_entries(
        self, corpus_judgements, scaling_programs
    ):
        """The translation keeps nothing on the contexts it reads: during the
        six checks, every context a type is read under holds no instance
        attribute but its entries and its cached hash."""
        programs = [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()
        spy, facts, _ = _read_spy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(defun_module, "Translation", spy)
            for ctx, term in programs:
                harness_module._judgement.cache_clear()  # its defun run must be spied on
                results = [check(ctx, term) for check in harness_module.ALL_CHECKS]
                assert all(r.ok for r in results), [r.line() for r in results]
        contexts = {id(ctx): ctx for ctx, _ in facts}.values()
        assert len(contexts) > 500
        assert [ctx for ctx in contexts if not set(vars(ctx)) <= {"entries", "_hash"}] == []

    def test_a_deep_pi_chain_read_as_a_return_type(self):
        """The binder table has no recursion: the return type of
        `fun (y : Nat) => c` is c's 990-link Π chain, and it is plain."""
        chain = NatType()
        for i in range(990, 0, -1):
            chain = Pi(f"x{i}", NatType(), chain)
            canon(chain)  # keeps free variables and keys bottom-up: those walks recurse
        ctx = Ctx((("c", chain),))
        deriv = cc_infer(ctx, parse_term("fun (y : Nat) => c"), check_ctx=False)
        run = Translation(DEFAULT_BUDGET)
        term, pids = run.translate(deriv)
        assert term == Label(0, (Var("c"),)) and pids == (0,)
        assert run._entries[0].ret_type is chain

    def test_the_lambda_chain_reads_few_types_and_hashes_keys_in_c(self, scaling, monkeypatch):
        """One `defun` of the 60-lambda chain: each binder's type is read
        once to grow the facts (1,832 `uses_only` calls when every context
        read all of its types), and no minting key runs Python code to hash."""
        used, keys = [], []

        def spy_uses_only(t, allowed):
            used.append(t)
            return uses_only(t, allowed)

        def spy_entry_canon(entry):
            keys.append(entry_canon(entry))
            return keys[-1]

        monkeypatch.setattr(defun_module, "uses_only", spy_uses_only)
        monkeypatch.setattr(defun_module, "entry_canon", spy_entry_canon)
        ctx, term = scaling("lambdas", 60)
        assert len(defun(ctx, term).labels) == 60
        assert len(used) <= 100 and len(keys) == 60
        python_calls = []

        def profile(frame, event, arg):
            if event == "call":
                python_calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for key in keys:
                hash(key)
        finally:
            sys.setprofile(None)
        assert python_calls == []
