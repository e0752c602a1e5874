"""Judgement checks, term enumeration, and file verification."""

import dataclasses
import importlib
from pathlib import Path

import pytest

from defuncc import harness, kernel, surface
from defuncc.cc import CC, cc_infer, cc_normalize
from defuncc.dcc import dcc_equiv, dcc_infer, dcc_normalize
from defuncc.errors import (
    AnnotationMismatch,
    ClosureTypeMismatch,
    DefunccError,
    NestingTooDeep,
    NotAFunction,
    NotAType,
    StepBudgetExceeded,
    TypeCheckError,
    TypeMismatch,
)
from defuncc.harness import (
    ALL_CHECKS,
    CheckResult,
    EnumConfig,
    check_annotations,
    check_reduction_preservation,
    check_round_trip,
    check_type_preservation,
    enumerate_small_terms,
    load_file,
    seed_contexts,
    verify_dcc,
    verify_file,
    verify_path,
)
from defuncc.kernel import DEFAULT_BUDGET, Budget, coerce, reduce_step
from defuncc.surface import parse_dcc, parse_source, parse_term, show_term
from defuncc.syntax import (
    NAT,
    Add,
    App,
    Ctx,
    Label,
    Lam,
    NatLit,
    NatType,
    Pi,
    Universe,
    Var,
    _ordered_union,
    alpha_eq,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
cc_module = importlib.import_module("defuncc.cc")
dcc_module = importlib.import_module("defuncc.dcc")
# the module, which the package's `defun` function shadows as an attribute
defun_module = importlib.import_module("defuncc.defun")
sigma_module = importlib.import_module("defuncc.sigma")
defun = defun_module.defun
DEEP = "add 1 (" * 1200 + "0" + ")" * 1200 + "\n"
TOO_DEEP = "error: input nests too deeply to check (recursion limit reached)"


class TestChecks:
    def test_every_check_has_a_distinct_name(self):
        results = [fn(Ctx(), Universe(0)) for fn in ALL_CHECKS]
        names = [r.name for r in results]
        assert len(set(names)) == len(ALL_CHECKS) == 6
        assert all(r.ok for r in results)

    def test_result_lines_are_reportable(self):
        r = CheckResult("type-preservation", True, "")
        assert r.line("  ") == "  type-preservation: ok"
        r = CheckResult("round-trip", False, "boom")
        assert r.line() == "round-trip: FAIL (boom)"

    def test_checks_pass_on_an_applied_program(self):
        t = parse_term("(fun (x : Nat) => add x 1) 3")
        for fn in ALL_CHECKS:
            result = fn(Ctx(), t)
            assert result.ok, result.line()

    def test_round_trip_check_names_itself(self):
        r = check_round_trip(Ctx(), parse_term("fun (x : Type 0) => x"))
        assert r.ok and r.name == "round-trip"

    def test_type_preservation_on_open_judgement(self):
        ctx = Ctx().extend("A", Universe(0)).extend("x", Var("A"))
        r = check_type_preservation(ctx, Var("x"))
        assert r.ok

    @pytest.mark.parametrize("depth", (600, 1200))
    @pytest.mark.parametrize("node", ("Add", "Lam"))
    def test_judgement_nested_deeply_never_raises_recursion_error(self, node, depth):
        """A check either gives its result or raises NestingTooDeep, which
        propagates instead of failing the check."""
        term = NatLit(0)
        for i in range(depth):
            term = Add(NatLit(1), term) if node == "Add" else Lam(f"x{i}", NatType(), term)
        for check in ALL_CHECKS:
            try:
                assert isinstance(check(Ctx(), term), CheckResult)
            except NestingTooDeep:
                pass


# (file, budget): budgets small enough that some checks run out and others
# do not, so a verdict that leaked from one check to another would show
SHARED_CASES = (
    ("poly_id.cc", 1_000_000),
    ("defs_expansion.cc", 1_000_000),
    ("twice.cc", 8),
    ("church_pairs.cc", 8),
    ("compose_nat_ground.cc", 8),
    ("compose_nat_ground.cc", 12),
    ("bad/illtyped.cc", 1_000_000),
)


def _shared_case(name, budget):
    elab = load_file(CORPUS / name)
    return elab.ctx, elab.main, budget


class TestSharedArtifact:
    """The six checks share one derivation and one translation per judgement;
    no verdict may depend on which checks ran before."""

    OTHER = (Ctx(), parse_term("(fun (x : Nat) => add x 1) 3"), 1_000_000)

    @pytest.mark.parametrize("name,budget", SHARED_CASES)
    def test_verdicts_do_not_depend_on_call_order(self, name, budget):
        case = _shared_case(name, budget)
        alone = []
        for check in ALL_CHECKS:
            ALL_CHECKS[0](*self.OTHER)
            alone.append(check(*case))
        in_order = [check(*case) for check in ALL_CHECKS]
        interleaved = []
        for check in ALL_CHECKS:
            interleaved.append(check(*case))
            check(*self.OTHER)
        backwards = [check(*case) for check in reversed(ALL_CHECKS)][::-1]
        assert alone == in_order == interleaved == backwards

    def test_one_pass_translates_once(self, monkeypatch):
        calls = []
        real = harness.defun

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "defun", counting)
        ctx, term, budget = _shared_case("compose_dependent.cc", 1_000_000)
        results = [check(ctx, term, budget) for check in ALL_CHECKS]
        assert all(r.ok for r in results), [r.line() for r in results]
        assert len(calls) == 1

    def test_one_pass_derives_the_judgement_once(self, monkeypatch):
        """The checks read the derivations of the term and of its normal form
        that the judgement holds instead of deriving them again (reduction
        preservation, weakening and the diagram check); a term that takes no
        step is its own normal form, derived once."""
        derived = []
        for module in (harness, defun_module, sigma_module):
            real = module.cc_infer

            def counting(c, t, *args, _real=real, **kwargs):
                derived.append((c, t))
                return _real(c, t, *args, **kwargs)

            monkeypatch.setattr(module, "cc_infer", counting)
        for name, normal in (("compose_nat_ground.cc", False), ("compose_dependent.cc", True)):
            ctx, term, budget = _shared_case(name, 1_000_000)
            nf = cc_normalize(term)
            assert (nf == term) == normal
            harness._judgement.cache_clear()  # an earlier test may hold this judgement
            derived.clear()
            results = [check(ctx, term, budget) for check in ALL_CHECKS]
            assert all(r.ok for r in results), [r.line() for r in results]
            assert (derived.count((ctx, term)), derived.count((ctx, nf))) == (1, 1)

    def test_one_pass_runs_one_translation_and_one_normalization(self, monkeypatch):
        """defun's run, which reduction preservation and the diagram check go
        on in; the source normal form is the last state of the one reduction
        trace."""
        ctx, term, budget = _shared_case("compose_nat_ground.cc", 1_000_000)
        harness._judgement.cache_clear()
        runs, normalized = [], []

        class Counting(defun_module.Translation):
            def __init__(self, budget):
                runs.append(budget)
                super().__init__(budget)

        monkeypatch.setattr(defun_module, "Translation", Counting)
        for module in (harness, defun_module, sigma_module):
            for name in ("cc_normalize", "cc_reduce_trace"):
                if hasattr(module, name):
                    real = getattr(module, name)

                    def counting(t, *args, _real=real, **kwargs):
                        if t == term:
                            normalized.append(t)
                        return _real(t, *args, **kwargs)

                    monkeypatch.setattr(module, name, counting)
        results = [check(ctx, term, budget) for check in ALL_CHECKS]
        assert all(r.ok for r in results), [r.line() for r in results]
        assert (len(runs), len(normalized)) == (1, 1)

    @pytest.fixture(scope="class")
    def programs(self, corpus_judgements, scaling_programs):
        """The corpus judgements and the scaling programs."""
        return [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()

    def test_verdicts_do_not_depend_on_check_order(self, programs):
        """Reduction preservation and the diagram check extend the same run,
        in whichever order they come."""
        orders = (ALL_CHECKS, ALL_CHECKS[::-1], ALL_CHECKS[-1:] + ALL_CHECKS[:-1])
        moved = []
        for ctx, term in programs:
            verdicts = []
            for order in orders:
                harness._judgement.cache_clear()
                by_check = {check: check(ctx, term) for check in order}
                verdicts.append([by_check[check] for check in ALL_CHECKS])
            if any(v != verdicts[0] for v in verdicts):
                moved.append((show_term(term), verdicts))
        assert moved == []

    def test_diagram_report_does_not_depend_on_a_translated_normal_form(self, programs):
        """Reduction preservation may have translated the normal form in the
        run, and compared the translated term with it, before the diagram
        check extends the run and reads that comparison."""
        moved = []
        for ctx, term in programs:
            reports = []
            for first in ((), ("translated_nf",), ("coherent",)):
                j = sigma_module.Judgement(ctx, term)
                for part in first:
                    getattr(j, part)()
                report = sigma_module.check_diagram(j, raise_on_failure=False)
                reports.append(dataclasses.replace(report, subst_nodes=0))
            if reports[0] != reports[1]:
                moved.append((show_term(term), reports))
        assert moved == []

    def test_one_pass_infers_and_normalizes_the_target_once(self, monkeypatch):
        """Type preservation and weakening read the judgement's target type,
        type safety and reduction preservation its target normal form;
        weakening infers once more under its longer label context.  Calls the
        diagram check makes are not counted."""
        ctx, term, budget = _shared_case("compose_nat_ground.cc", 1_000_000)
        harness._judgement.cache_clear()
        calls, in_diagram = [], []
        for module in (harness, sigma_module):
            for name in ("dcc_infer", "dcc_normalize"):

                def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                    if not in_diagram:
                        calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)

        def diagram(*args, _real=harness.check_diagram, **kwargs):
            in_diagram.append(True)
            try:
                return _real(*args, **kwargs)
            finally:
                in_diagram.pop()

        monkeypatch.setattr(harness, "check_diagram", diagram)
        results = [check(ctx, term, budget) for check in ALL_CHECKS]
        assert all(r.ok for r in results), [r.line() for r in results]
        assert (calls.count("dcc_infer"), calls.count("dcc_normalize")) == (2, 1)

    @pytest.mark.parametrize("name", ["compose_dependent.cc", "compose_nat_ground.cc"])
    def test_one_pass_compares_the_term_with_its_normal_form_once(self, name, monkeypatch):
        """Reduction preservation on a type that is not ground (the first file)
        and the diagram's `dcc-coherence` edge read the judgement's one
        comparison of the translated term with its translated normal form."""
        ctx, term, budget = _shared_case(name, 1_000_000)
        harness._judgement.cache_clear()
        target = harness.defun(ctx, term, budget).term
        compared = []
        for module in (harness, sigma_module):

            def counting(defs, a, b, *args, _real=module.dcc_equiv):
                compared.append(alpha_eq(a, target))
                return _real(defs, a, b, *args)

            monkeypatch.setattr(module, "dcc_equiv", counting)
        results = [check(ctx, term, budget) for check in ALL_CHECKS]
        assert all(r.ok for r in results), [r.line() for r in results]
        assert results[1].detail.startswith("ground value") == (name == "compose_nat_ground.cc")
        assert compared.count(True) == 1

    def test_label_context_is_checked_once_per_judgement(self, enumerated, monkeypatch):
        """Type preservation checks the judgement's labels and context and the
        diagram check reads that check, then checks only the entries it
        minted.  Over every fifth judgement of the size-6 enumeration that is
        at most 3.3 context checks per judgement (each label entry's
        telescope is one, the source and the target context one each)."""
        calls = []

        def counting(*args, _real=kernel.check_context):
            calls.append(1)
            return _real(*args)

        for module in (cc_module, dcc_module):
            monkeypatch.setattr(module, "check_context", counting)
        judgements = enumerated[::5]
        assert len(judgements) == 505
        for ctx, term in judgements:
            assert all(check(ctx, term).ok for check in ALL_CHECKS)
        assert len(calls) / len(judgements) <= 3.3


def _private_run_reduction_preservation(ctx, term, budget=DEFAULT_BUDGET) -> CheckResult:
    """Reduction preservation as it was before it shared the judgement: its
    own translation run over the term and its normal form, and the normal
    form from cc_normalize."""
    name = "reduction-preservation"
    try:
        deriv = defun(ctx, term, budget).derivation
        nf = cc_normalize(term, budget)
        run = defun_module.Translation(budget)
        _, cp = run.translate_context(ctx)
        tt, tp = run.translate(deriv)
        tn, npids = run.translate(cc_infer(ctx, nf, budget, check_ctx=False))
        ren = run.finalize()
        defs = ren.label_ctx(_ordered_union(cp, tp, npids))
        f_term, f_nf = ren.term(tt), ren.term(tn)
        dcc_nf = dcc_normalize(defs, f_term, budget)
        if isinstance(cc_normalize(deriv.type, budget), NatType):
            if not alpha_eq(dcc_nf, nf):
                detail = f"ground values differ: {show_term(dcc_nf)} vs {show_term(nf)}"
                return CheckResult(name, False, detail)
            return CheckResult(name, True, f"ground value {show_term(nf)}")
        if not dcc_equiv(defs, f_term, f_nf, budget):
            detail = "translated term and translated normal form differ"
            return CheckResult(name, False, detail)
        return CheckResult(name, True, "")
    except DefunccError as exc:
        return CheckResult(name, False, str(exc))


class TestReductionPreservation:
    """Translating the normal form in the term's own run, and reading it off
    the reduction trace, gives the verdicts and details of a private run."""

    def _assert_unchanged(self, cases):
        changed = []
        for ctx, term, budget in cases:
            harness._judgement.cache_clear()
            got = check_reduction_preservation(ctx, term, budget)
            want = _private_run_reduction_preservation(ctx, term, budget)
            if got != want:
                changed.append((term, budget, got, want))
        assert changed == []

    def test_corpus_at_small_budgets(self, corpus_judgements):
        budgets = (3, 5, 8, 12, 20, 30, DEFAULT_BUDGET)
        cases = [(c, t, b) for _, c, t in corpus_judgements for b in budgets]
        self._assert_unchanged(cases)

    def test_scaling_families(self, scaling_programs):
        self._assert_unchanged(
            [(c, t, b) for c, t in scaling_programs() for b in (5, 30, 100, DEFAULT_BUDGET)]
        )

    def test_enumerated_judgements(self, enumerated):
        assert len(enumerated) == 2525
        self._assert_unchanged([(c, t, DEFAULT_BUDGET) for c, t in enumerated])


class TestJoinable:
    """The joinability search the property tests cross-check with (conftest)."""

    @staticmethod
    def step(t):
        return reduce_step(CC, t)

    def test_identical_terms_are_joinable(self, joinable):
        assert joinable(self.step, NatLit(3), NatLit(3))

    def test_reduct_joins_with_source(self, joinable):
        t = parse_term("(fun (x : Nat) => add x 1) 3")
        assert joinable(self.step, t, NatLit(4))

    def test_distinct_normal_forms_do_not_join(self, joinable):
        assert not joinable(self.step, NatLit(3), NatLit(4))


class TestEnumeration:
    def test_seed_contexts_cover_the_standard_shapes(self):
        seeds = seed_contexts()
        assert Ctx() in seeds
        names = [ctx.names() for ctx in seeds]
        assert ("A",) in names
        assert ("A", "a") in names
        assert ("A", "f", "a") in names
        assert ("n",) in names

    def test_size_one_terms_are_atoms(self):
        pairs = enumerate_small_terms(EnumConfig(size_budget=1))
        assert pairs
        for _, term in pairs:
            assert isinstance(term, (Var, Universe, NatType, NatLit))
        assert any(isinstance(t, Var) for _, t in pairs)
        assert any(isinstance(t, Universe) for _, t in pairs)

    def test_size_three_includes_the_identity_lambda(self):
        pairs = enumerate_small_terms(EnumConfig(size_budget=3))
        ident = Lam("x", Universe(0), Var("x"))
        assert any(
            ctx == Ctx() and alpha_eq(term, ident) for ctx, term in pairs
        )

    def test_enumeration_is_well_typed_and_deterministic(self):
        a = enumerate_small_terms(EnumConfig(size_budget=3))
        b = enumerate_small_terms(EnumConfig(size_budget=3))
        assert a == b

    def test_judgement_count_is_stable(self):
        # Frozen count for the default acceptance sweep; terms have odd
        # sizes, so budgets 5 and 6 agree.
        five = enumerate_small_terms(EnumConfig(size_budget=5))
        six = enumerate_small_terms(EnumConfig(size_budget=6))
        assert len(five) == 2525
        assert five == six


def naive_enumeration(size_budget: int) -> list:
    """Every `_raw_terms` candidate through `cc_infer`, in order: the
    enumeration without its premise pruning."""
    out, memo = [], {}
    for ctx in seed_contexts():
        for size in range(1, size_budget + 1):
            for t in harness._raw_terms(ctx.names(), size, 0, memo):
                try:
                    cc_infer(ctx, t, harness.ENUM_INFER_BUDGET, check_ctx=False)
                except (TypeCheckError, StepBudgetExceeded):
                    continue
                out.append((ctx, t))
    return out


class TestEnumerationPruning:
    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_pruning_keeps_what_inference_keeps(self, size):
        assert enumerate_small_terms(EnumConfig(size_budget=size)) == naive_enumeration(size)

    def test_the_enumeration_prints_no_term(self, monkeypatch):
        """Rejected candidates' failures are never read, so none is
        formatted: `show_term` is not called, nor `_show`, which every
        printer reaches."""
        calls = []
        for name in ("show_term", "_show"):
            real = getattr(surface, name)
            monkeypatch.setattr(
                surface, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        assert len(enumerate_small_terms(EnumConfig(size_budget=6))) == 2525
        assert calls == []


def _failure(judge):
    with pytest.raises(TypeCheckError) as info:
        judge()
    return info.value


class TestFailureText:
    """Failures that name terms print them only when read, in the same text."""

    def test_a_constructor_outside_the_calculus(self):
        exc = _failure(lambda: cc_infer(Ctx(), Label(0, ())))
        assert type(exc) is NotAType
        assert str(exc) == (
            "expected a type (a term of some universe): "
            "constructor not part of the source calculus: l0{}"
        )

    def test_a_head_that_is_no_function(self):
        exc = _failure(lambda: cc_infer(Ctx(), App(NatLit(1), NatLit(1))))
        assert type(exc) is NotAFunction
        assert str(exc) == "application head is not a function: 1 has type Nat"

    def test_a_domain_that_is_no_type(self):
        exc = _failure(lambda: cc_infer(Ctx(), Pi("x", NatLit(1), NAT)))
        assert type(exc) is NotAType
        assert str(exc) == "expected a type (a term of some universe): 1 has type Nat"

    def test_a_mismatch_in_a_named_place(self):
        exc = _failure(lambda: cc_infer(Ctx(), Add(NatLit(1), NAT)))
        assert type(exc) is TypeMismatch
        assert str(exc) == "type mismatch in right operand of add: expected Nat, got Type 0"
        assert (exc.expected, exc.actual) == ("Nat", "Type 0")

    def test_a_mismatch_in_no_named_place(self):
        d = cc_infer(Ctx(), NAT)
        exc = _failure(lambda: coerce(CC, Ctx(), d, NAT, Budget(DEFAULT_BUDGET), ""))
        assert type(exc) is TypeMismatch
        assert str(exc) == "type mismatch: expected Nat, got Type 0"

    def test_a_closure_argument_of_the_wrong_type(self):
        elab = parse_dcc("label l0 {n : Nat} (x : Nat) -> Nat := add n x;\nl0{Nat} 3\n").elaborate()
        exc = _failure(lambda: dcc_infer(elab.labels, elab.ctx, elab.main))
        assert type(exc) is ClosureTypeMismatch
        assert str(exc) == "closure argument 0 of l0: expected Nat, got Type 0"

    def test_a_body_that_does_not_meet_its_annotation(self):
        elab = parse_source("def g : Type 0 := add 1 2;\n").elaborate()
        [(name, exc)] = check_annotations(elab)
        assert (name, type(exc)) == ("g", AnnotationMismatch)
        assert str(exc) == "def g: body has type Nat, annotation says Type 0"
        assert exc.body_type == "Nat"


class TestVerification:
    def test_verify_file_on_source(self):
        ok, lines = verify_file(CORPUS / "two_plus_two.cc")
        assert ok
        assert any("context: ok" in line for line in lines)
        assert any("type-preservation: ok" in line for line in lines)

    def test_verify_file_on_emitted_target(self, tmp_path):
        from defuncc.defun import defun
        from defuncc.surface import emit_text

        elab = load_file(CORPUS / "compose_simply_typed.cc")
        res = defun(elab.ctx, elab.main)
        out = tmp_path / "compose.dcc"
        out.write_text(emit_text(res.defs, res.dcc_ctx, res.term))
        ok, lines = verify_file(out)
        assert ok, "\n".join(lines)

    def test_verify_rejects_ill_typed_target(self):
        ok, lines = verify_file(CORPUS / "bad" / "unknown_label.dcc")
        assert not ok
        assert any("FAIL" in line for line in lines)

    def test_verify_path_over_directory(self, tmp_path):
        (tmp_path / "one.cc").write_text("add 1 1\n")
        (tmp_path / "two.cc").write_text("fun (x : Nat) => x\n")
        ok, lines, _ = verify_path(tmp_path)
        assert ok
        assert sum("one.cc" in line for line in lines) >= 1

    def test_input_nested_too_deeply_raises_a_defuncc_error(self, tmp_path):
        deep = tmp_path / "deep.cc"
        deep.write_text(DEEP)
        for verify in (verify_file, verify_path):
            with pytest.raises(NestingTooDeep) as caught:
                verify(deep)
            assert f"error: {caught.value}" == TOO_DEEP

    def test_load_file_nested_too_deeply_raises_nesting_too_deep(self, tmp_path):
        deep = tmp_path / "deep.cc"
        deep.write_text(DEEP)
        with pytest.raises(NestingTooDeep):
            load_file(deep)

    def test_verify_path_goes_on_past_files_it_cannot_check(self, tmp_path):
        (tmp_path / "deep.cc").write_text(DEEP)
        (tmp_path / "garbled.cc").write_bytes(b"\xff\n")
        (tmp_path / "two_plus_two.cc").write_text((CORPUS / "two_plus_two.cc").read_text())
        ok, lines, unread = verify_path(tmp_path)
        assert (ok, unread) == (False, 2)
        assert lines[0] == f"deep.cc: {TOO_DEEP}"
        assert lines[1].startswith("garbled.cc: error: input is not UTF-8 text (")
        assert len(lines) == 9  # two_plus_two.cc: the context and the six checks
        assert all(line.endswith(": ok") or ": ok (" in line for line in lines[2:])

    def test_all_bad_targets_fail_verification(self, bad_dcc_paths):
        for path in bad_dcc_paths:
            ok, lines = verify_dcc(load_file(path))
            assert not ok, path.name
