"""Substitution, alpha-equivalence, and free-variable bookkeeping."""

import dataclasses

import pytest

from defuncc.defun import defun
from defuncc.harness import EnumConfig, enumerate_small_terms
from defuncc.sigma import ccs_reduce_trace, sigma_embed
from defuncc.surface import parse_term
from defuncc.syntax import (
    Add,
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
    free_var_set,
    free_vars,
    fresh_name,
    map_children,
    rebuild,
    rename_free,
    subst,
    subst_many,
    uses_only,
)

ONE_OF_EACH = [
    Var("x"),
    Universe(1),
    NatType(),
    NatLit(2),
    Pi("x", NatType(), Var("x")),
    Lam("x", NatType(), Var("x")),
    App(Var("f"), NatLit(1)),
    Add(NatLit(1), Var("n")),
    Label(4, (Var("a"), NatLit(0))),
    ESubst(Var("y"), (SBind("x", NatType(), NatLit(1)), SBind("y", Var("x"), Var("x")))),
]


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_child_map_rebuilds_every_constructor(t):
    assert rebuild(t, children(t)) == t
    assert map_children(lambda c: c, t) == t
    renamed = map_children(lambda c: rename_free(c, "x", "z"), t)
    assert children(renamed) == tuple(rename_free(c, "x", "z") for c in children(t))


def test_suspension_children_put_subject_and_values_first():
    t = ONE_OF_EACH[-1]
    assert children(t) == (Var("y"), NatLit(1), Var("x"), NatType(), Var("x"))


def test_uses_only_finds_a_constructor_deep_inside():
    t = App(Lam("x", NatType(), Add(Var("x"), Label(0, ()))), NatLit(1))
    assert not uses_only(t, frozenset({App, Lam, Add, Var, NatType, NatLit}))
    assert uses_only(t, frozenset({App, Lam, Add, Var, NatType, NatLit, Label}))


def test_subst_replaces_matching_variable():
    assert subst(Var("x"), "x", Universe(0)) == Universe(0)


def test_subst_leaves_other_variables_alone():
    assert subst(Var("y"), "x", Universe(0)) == Var("y")


def test_subst_descends_into_label_arguments():
    t = Label(3, (Var("f"), Var("g")))
    assert subst(t, "g", Var("h")) == Label(3, (Var("f"), Var("h")))


def test_subst_stops_at_shadowing_binder():
    t = Lam("y", Var("A"), Var("y"))
    assert subst(t, "y", NatLit(1)) == t


def test_subst_under_nonshadowing_binder():
    t = Lam("y", Var("A"), Var("x"))
    out = subst(t, "x", NatLit(1))
    assert alpha_eq(out, Lam("y", Var("A"), NatLit(1)))


def test_subst_avoids_capture():
    # [y/x](fun y => x) must not let the binder capture the substituted y.
    t = Lam("y", Var("A"), Var("x"))
    out = subst(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert out.body == Var("y")
    assert alpha_eq(out, Lam("z", Var("A"), Var("y")))


def test_subst_in_pi_codomain():
    t = Pi("x", Var("A"), App(Var("P"), Var("x")))
    out = subst(t, "P", Var("Q"))
    assert alpha_eq(out, Pi("x", Var("A"), App(Var("Q"), Var("x"))))


def test_subst_many_is_parallel():
    # Parallel {x -> y, y -> x} swaps; sequential application would not.
    t = App(Var("x"), Var("y"))
    out = subst_many(t, {"x": Var("y"), "y": Var("x")})
    assert out == App(Var("y"), Var("x"))


def test_alpha_eq_identity_lambdas():
    a = Lam("x", Universe(0), Var("x"))
    b = Lam("y", Universe(0), Var("y"))
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_label_ids():
    assert not alpha_eq(Label(1, ()), Label(2, ()))


def test_alpha_eq_distinguishes_bodies():
    a = Pi("x", Var("A"), Var("x"))
    b = Pi("x", Var("A"), Var("A"))
    assert not alpha_eq(a, b)


def test_alpha_eq_is_structural_on_ground_terms():
    assert alpha_eq(Add(NatLit(1), Var("n")), Add(NatLit(1), Var("n")))
    assert not alpha_eq(NatLit(1), NatLit(2))
    assert alpha_eq(NatType(), NatType())


def test_alpha_eq_free_variables_by_name():
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("y"))


def test_free_vars_of_lambda():
    t = Lam("x", Var("A"), App(Var("f"), Var("x")))
    assert free_vars(t) == ("A", "f")


def test_free_vars_of_universe():
    assert free_vars(Universe(0)) == ()


def test_free_vars_first_occurrence_order():
    t = App(App(Var("f"), Var("x")), App(Var("g"), Var("x")))
    assert free_vars(t) == ("f", "x", "g")


def test_free_var_set_matches_free_vars():
    t = parse_term("fun (x : A) => f (g x)")
    assert free_var_set(t) == set(free_vars(t))


def test_fresh_name_avoids_collisions():
    name = fresh_name("x", {"x", "x'", "x''"})
    assert name not in {"x", "x'", "x''"}


def test_rename_free_is_capture_avoiding():
    t = Lam("y", Var("A"), Var("x"))
    out = rename_free(t, "x", "y")
    assert alpha_eq(out, Lam("z", Var("A"), Var("y")))


class TestSuspension:
    """The explicit-substitution node used by the small-step machine."""

    def test_free_vars_include_values_not_bound_names(self):
        t = ESubst(App(Var("f"), Var("x")), (SBind("x", NatType(), Var("n")),))
        assert set(free_vars(t)) == {"f", "n"}

    def test_telescope_domains_may_use_earlier_names(self):
        # In (body){A -> Nat, a -> n} the declared type of a may mention A.
        t = ESubst(
            Var("a"),
            (SBind("A", Universe(0), NatType()), SBind("a", Var("A"), Var("n"))),
        )
        assert set(free_vars(t)) == {"n"}

    def test_alpha_eq_quotients_suspension_names(self):
        a = ESubst(Var("x"), (SBind("x", NatType(), Var("n")),))
        b = ESubst(Var("y"), (SBind("y", NatType(), Var("n")),))
        assert alpha_eq(a, b)

    def test_alpha_eq_compares_values_in_outer_scope(self):
        a = ESubst(Var("x"), (SBind("x", NatType(), Var("n")),))
        b = ESubst(Var("x"), (SBind("x", NatType(), Var("m")),))
        assert not alpha_eq(a, b)

    def test_subst_reaches_values_but_respects_bound_names(self):
        t = ESubst(App(Var("x"), Var("y")), (SBind("x", NatType(), Var("v")),))
        out = subst(t, "v", NatLit(3))
        assert out == ESubst(
            App(Var("x"), Var("y")), (SBind("x", NatType(), NatLit(3)),)
        )
        # x is bound by the suspension, so outer substitution skips the subject.
        same = subst(t, "x", NatLit(9))
        assert alpha_eq(same, t)

    def test_subst_avoids_capture_by_suspension_binder(self):
        t = ESubst(App(Var("x"), Var("y")), (SBind("x", NatType(), NatLit(0)),))
        out = subst(t, "y", Var("x"))
        assert isinstance(out, ESubst)
        (sb,) = out.bindings
        assert sb.name != "x"
        assert isinstance(out.subject, App)
        assert out.subject == App(Var(sb.name), Var("x"))


@pytest.mark.parametrize(
    "source",
    [
        "Type 0",
        "fun (x : Nat) => add x 1",
        "(A : Type 0) -> (x : A) -> A",
        "f (g x)",
    ],
)
def test_alpha_eq_reflexive_on_parsed_terms(source):
    t = parse_term(source)
    assert alpha_eq(t, t)


# ---------------------------------------------------------------------------
# The per-node free-variable cache against the walker it replaced


def reference_free_vars(t) -> tuple[str, ...]:
    """Free variables in first-occurrence order, by walking the whole term."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(t, bound: frozenset[str]) -> None:
        match t:
            case Var(name):
                if name not in bound and name not in seen:
                    seen.add(name)
                    out.append(name)
            case Pi(binder, domain, body) | Lam(binder, domain, body):
                walk(domain, bound)
                walk(body, bound | {binder})
            case App() | Add() | Label():
                for c in children(t):
                    walk(c, bound)
            case ESubst(subject, bindings):
                inner = bound
                for sb in bindings:
                    walk(sb.domain, inner)
                    walk(sb.value, bound)
                    inner = inner | {sb.name}
                walk(subject, inner)

    walk(t, frozenset())
    return tuple(out)


def assert_cache_matches_reference(*roots) -> set[type]:
    """Check free_vars on every subterm of the roots; the constructors seen."""
    seen: set[type] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        seen.add(type(t))
        assert free_vars(t) == reference_free_vars(t), t
        stack.extend(children(t))
    return seen


class TestFreeVariableCache:
    def test_corpus_judgements_and_their_translations(self, corpus_judgements):
        seen = set()
        for _, ctx, term in corpus_judgements:
            seen |= assert_cache_matches_reference(term, *(ty for _, ty in ctx))
            res = defun(ctx, term)
            seen |= assert_cache_matches_reference(res.term, *(ty for _, ty in res.dcc_ctx))
            for e in res.labels:
                seen |= assert_cache_matches_reference(
                    *(a for _, a in e.telescope), e.arg_type, e.body, e.ret_type
                )
        assert Label in seen

    def test_enumerated_terms(self):
        judgements = enumerate_small_terms(EnumConfig(size_budget=6))
        assert len(judgements) == 2525
        for ctx, term in judgements:
            assert_cache_matches_reference(term, *(ty for _, ty in ctx))

    def test_sigma_states_of_diagram_traces(self, corpus_judgements, scaling):
        _, twice = scaling("twice", 2)
        terms = [twice] + [term for _, _, term in corpus_judgements]
        seen = set()
        for term in terms:
            seen |= assert_cache_matches_reference(*ccs_reduce_trace(sigma_embed(term)))
        assert ESubst in seen

    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_second_call_returns_the_same_tuple(self, t):
        assert free_vars(t) is free_vars(t)

    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_the_cache_is_not_part_of_the_value(self, t):
        values = tuple(getattr(t, f.name) for f in dataclasses.fields(t))
        twin = type(t)(*values)
        free_vars(t)
        assert t == twin and hash(t) == hash(twin) == hash(values)
        assert repr(t) == f"{type(t).__name__}(" + ", ".join(
            f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(t), values)
        ) + ")"
        assert not hasattr(t, "__dict__")
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, None)

    def test_fields_are_unchanged(self):
        assert {type(t).__name__: tuple(f.name for f in dataclasses.fields(t))
                for t in ONE_OF_EACH + [SBind("x", NatType(), NatLit(1))]} == {
            "Var": ("name",),
            "Universe": ("level",),
            "NatType": (),
            "NatLit": ("value",),
            "Pi": ("binder", "domain", "codomain"),
            "Lam": ("binder", "domain", "body"),
            "App": ("fn", "arg"),
            "Add": ("lhs", "rhs"),
            "Label": ("label_id", "args"),
            "ESubst": ("subject", "bindings"),
            "SBind": ("name", "domain", "value"),
        }
