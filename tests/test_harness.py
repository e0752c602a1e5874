"""Judgement checks, term enumeration, and file verification."""

from pathlib import Path

import pytest

from defuncc import harness
from defuncc.cc import cc_reduce_step
from defuncc.harness import (
    ALL_CHECKS,
    CheckResult,
    EnumConfig,
    check_round_trip,
    check_type_preservation,
    enumerate_small_terms,
    joinable,
    load_file,
    seed_contexts,
    verify_dcc,
    verify_file,
    verify_path,
)
from defuncc.surface import parse_term
from defuncc.syntax import (
    Ctx,
    Lam,
    NatLit,
    NatType,
    Universe,
    Var,
    alpha_eq,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


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


class TestJoinable:
    def test_identical_terms_are_joinable(self):
        assert joinable(cc_reduce_step, NatLit(3), NatLit(3))

    def test_reduct_joins_with_source(self):
        t = parse_term("(fun (x : Nat) => add x 1) 3")
        assert joinable(cc_reduce_step, t, NatLit(4))

    def test_distinct_normal_forms_do_not_join(self):
        assert not joinable(cc_reduce_step, NatLit(3), NatLit(4))


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
        ok, lines = verify_path(tmp_path)
        assert ok
        assert sum("one.cc" in line for line in lines) >= 1

    def test_all_bad_targets_fail_verification(self, bad_dcc_paths):
        for path in bad_dcc_paths:
            ok, lines = verify_dcc(load_file(path))
            assert not ok, path.name
