"""Randomized laws: substitution, alpha-equivalence, and agreement between
the direct normalizer, the machine, and the translations."""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from defuncc.cc import CC, SIGMA, cc_equiv, cc_normalize
from defuncc.harness import EnumConfig, check_round_trip, enumerate_small_terms
from defuncc.kernel import DEFAULT_BUDGET, Budget, normalize, reduce_step
from defuncc.sigma import ccs_equiv
from defuncc.syntax import (
    Add,
    App,
    Lam,
    NatLit,
    NatType,
    Pi,
    Universe,
    Var,
    alpha_eq,
    free_var_set,
    fresh_name,
    subst,
)

NAMES = ("x", "y", "z", "f")
SAFE_NAMES = ("y", "z")  # never contains "x"; see the substitution lemma


def term_strategy(names):
    base = st.one_of(
        st.sampled_from([Var(n) for n in names]),
        st.builds(Universe, st.integers(0, 2)),
        st.just(NatType()),
        st.builds(NatLit, st.integers(0, 3)),
    )
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(App, sub, sub),
            st.builds(Add, sub, sub),
            st.builds(Lam, st.sampled_from(names), sub, sub),
            st.builds(Pi, st.sampled_from(names), sub, sub),
        ),
        max_leaves=8,
    )


TERMS = term_strategy(NAMES)
SAFE_TERMS = term_strategy(SAFE_NAMES)

JUDGEMENTS = enumerate_small_terms(EnumConfig(size_budget=5))


@given(TERMS)
def test_alpha_eq_is_reflexive(t):
    assert alpha_eq(t, t)


@given(TERMS)
def test_alpha_eq_ignores_binder_names(t):
    w = fresh_name("w", free_var_set(t))
    a = Lam("x", NatType(), t)
    b = Lam(w, NatType(), subst(t, "x", Var(w)))
    assert alpha_eq(a, b)


@given(TERMS, TERMS)
def test_subst_respects_alpha_eq(t, a):
    w = fresh_name("w", free_var_set(t) | free_var_set(a))
    renamed = Lam(w, NatType(), subst(t, "x", Var(w)))
    original = Lam("x", NatType(), t)
    assert alpha_eq(subst(original, "y", a), subst(renamed, "y", a))


@given(TERMS, TERMS, SAFE_TERMS)
def test_substitutions_commute(t, a, b):
    # [b/y]([a/x]t) = [([b/y]a)/x]([b/y]t) when x is not free in b.
    lhs = subst(subst(t, "x", a), "y", b)
    rhs = subst(subst(t, "y", b), "x", subst(a, "y", b))
    assert alpha_eq(lhs, rhs)


@given(TERMS, TERMS)
def test_subst_free_vars_are_bounded(t, a):
    out = free_var_set(subst(t, "x", a))
    bound = (free_var_set(t) - {"x"}) | free_var_set(a)
    assert out <= bound


@given(TERMS, TERMS)
def test_subst_is_identity_without_occurrences(t, a):
    if "x" not in free_var_set(t):
        assert alpha_eq(subst(t, "x", a), t)


@given(st.sampled_from(JUDGEMENTS))
@settings(max_examples=60, deadline=None)
def test_normalize_is_idempotent(pair):
    ctx, t = pair
    nf = cc_normalize(t)
    assert cc_normalize(nf) == nf
    assert cc_equiv(t, nf)


@given(st.sampled_from(JUDGEMENTS))
@settings(max_examples=60, deadline=None)
def test_machine_normal_forms_match_direct_ones(pair):
    ctx, t = pair
    assert ccs_equiv(normalize(SIGMA, t, Budget(DEFAULT_BUDGET)), cc_normalize(t))


@given(st.sampled_from(JUDGEMENTS))
@settings(max_examples=40, deadline=None)
def test_single_steps_stay_equivalent_and_joinable(joinable, pair):
    ctx, t = pair
    step = functools.partial(reduce_step, CC)
    s = step(t)
    if s is not None:
        assert cc_equiv(t, s)
        assert joinable(step, t, s)


@given(st.sampled_from(JUDGEMENTS))
@settings(max_examples=40, deadline=None)
def test_round_trip_on_enumerated_judgements(pair):
    ctx, t = pair
    result = check_round_trip(ctx, t)
    assert result.ok, result.line()
