"""Conversion against a reference: the equivalence of normal forms that
renamed every Π binder to a common fresh name, tested `alpha_eq` at every
level and answered "not equal" past a depth cutoff, kept verbatim below.
Over every comparison the six checks make on the corpus, the scaling
families and the enumerated judgements, and over generated pairs, both
must give the same answer and leave the budget at the same count.  The
one place they may differ is where the cutoff cut a comparison short."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defuncc import kernel
from defuncc.cc import CC, SIGMA
from defuncc.errors import DefunccError, StepBudgetExceeded
from defuncc.harness import ALL_CHECKS
from defuncc.kernel import DEFAULT_BUDGET, Budget, Calculus, normalize
from defuncc.syntax import (
    NAT,
    Add,
    App,
    ESubst,
    Label,
    Lam,
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    alpha_eq,
    children,
    free_var_set,
    fresh_name,
    subst,
)

# ---------------------------------------------------------------------------
# The reference

# Conversion gives up (answers "not equal") below this many nested comparisons.
ETA_DEPTH_LIMIT = 64


def _equiv_nf(calc: Calculus, a: Term, b: Term, depth: int, bud: Budget) -> bool:
    """Equivalence of normal forms.  When either side is a function, both are
    applied to a common fresh name and compared again."""
    if depth > ETA_DEPTH_LIMIT:
        return False
    if alpha_eq(a, b):
        return True
    d = depth + 1
    match a, b:
        case Pi(x, a1, b1), Pi(y, a2, b2):
            if not _equiv_nf(calc, a1, a2, d, bud):
                return False
            z = fresh_name(x, free_var_set(b1) | free_var_set(b2) | {x, y})
            return _equiv_nf(calc, subst(b1, x, Var(z)), subst(b2, y, Var(z)), d, bud)
        case App(f1, x1), App(f2, x2):
            return _equiv_nf(calc, f1, f2, d, bud) and _equiv_nf(calc, x1, x2, d, bud)
        case Add(l1, r1), Add(l2, r2):
            return _equiv_nf(calc, l1, l2, d, bud) and _equiv_nf(calc, r1, r2, d, bud)
        case Label(i, xs), Label(j, ys) if i == j and len(xs) == len(ys):
            if all(_equiv_nf(calc, p, q, d, bud) for p, q in zip(xs, ys)):
                return True
            # the closures differ; the bridge below may still equate the labels
    if calc.is_function(a) or calc.is_function(b):
        z = fresh_name("x", free_var_set(a) | free_var_set(b))
        a2 = calc.unfold(calc, a, z, bud)
        if a2 is None:
            return False
        b2 = calc.unfold(calc, b, z, bud)
        return b2 is not None and _equiv_nf(calc, a2, b2, d, bud)
    return False


def reference_convertible(calc: Calculus, a: Term, b: Term, bud: Budget) -> bool:
    return _equiv_nf(calc, normalize(calc, a, bud), normalize(calc, b, bud), 0, bud)


def _own(t: Term):
    """What a node holds besides its children: its binder names or label id."""
    match t:
        case Pi(x) | Lam(x):
            return x
        case Label(i):
            return i
        case ESubst(_, bindings):
            return tuple(sb.name for sb in bindings)
    return None


def _hole_path(a: Term, c: Term) -> list[tuple[Term, Term]]:
    """The node pairs from the roots down to where a and c differ in more
    than one child, or in constructor, binder names or label id."""
    path = [(a, c)]
    while type(a) is type(c) and _own(a) == _own(c) and len(children(a)) == len(children(c)):
        differ = [(p, q) for p, q in zip(children(a), children(c)) if p is not q]
        if len(differ) != 1:
            break
        a, c = differ[0]
        path.append((a, c))
    return path


def _contracted(calc: Calculus, t: Term) -> Term | None:
    """The redex at the root of t, contracted; None if there is none."""
    if type(t) in (App, ESubst):
        return calc.head(t)
    if type(t) is Add and type(t.lhs) is NatLit and type(t.rhs) is NatLit:
        return NatLit(t.lhs.value + t.rhs.value)
    return None


def _meets(calc: Calculus, a: Term, b: Term, bud: Budget) -> bool:
    """a matched against b by pushing suspensions at the heads, or dropping
    those that bind nothing there (a step either way), renaming Π binders to
    a common fresh name, and applying two functions to a fresh name (a step
    per application)."""
    sides = []
    for t in (a, b):
        while type(t) is ESubst:
            names = {sb.name for sb in t.bindings}
            r = calc.head(t) if names & free_var_set(t.subject) else t.subject
            if r is None:
                break
            bud.spend()
            t = r
        sides.append(t)
    a, b = sides
    if alpha_eq(a, b):
        return True
    match a, b:
        case Pi(x, a1, b1), Pi(y, a2, b2):
            if not _meets(calc, a1, a2, bud):
                return False
            z = fresh_name(x, free_var_set(b1) | free_var_set(b2) | {x, y})
            return _meets(calc, subst(b1, x, Var(z)), subst(b2, y, Var(z)), bud)
        case App(f1, x1), App(f2, x2):
            return _meets(calc, f1, f2, bud) and _meets(calc, x1, x2, bud)
        case Add(l1, r1), Add(l2, r2):
            return _meets(calc, l1, l2, bud) and _meets(calc, r1, r2, bud)
        case Label(i, xs), Label(j, ys) if i == j and len(xs) == len(ys):
            if all(_meets(calc, p, q, bud) for p, q in zip(xs, ys)):
                return True
    if calc.is_function(a) or calc.is_function(b):
        z = fresh_name("x", free_var_set(a) | free_var_set(b))
        applied = []
        for t in (a, b):
            r = calc.head(App(t, Var(z)))
            if r is None:
                return False
            bud.spend()
            applied.append(r)
        return _meets(calc, *applied, bud)
    return False


def _at_hole(calc: Calculus, a: Term, c: Term, bud: Budget) -> bool:
    path = _hole_path(a, c)
    if alpha_eq(*path[-1]):
        return True
    for a, c in reversed(path):
        r = _contracted(calc, a)
        if r is not None:
            bud.spend()
            if _meets(calc, r, c, bud):
                return True
    return False


def reference_step(calc: Calculus, a: Term, c: Term, limit: int, made: list[Budget]) -> bool:
    """`kernel.convertible_step` over the reference, each budget it makes
    appended to `made`.  The pair holds on a fresh budget if the deepest
    nodes of its path (`_hole_path`) are α-equal, or if a node of the path,
    tried deepest first, contracts (one step) to what `_meets` the other
    side; anything else, or a pair whose budget runs out there, compares
    normal forms on a fresh budget."""
    made.append(Budget(limit))
    try:
        if _at_hole(calc, a, c, made[-1]):
            return True
    except DefunccError:
        pass
    made.append(Budget(limit))
    return reference_convertible(calc, a, c, made[-1])


# ---------------------------------------------------------------------------
# Both sides of one comparison


def _outcome(compare, *args):
    """What a comparison gives: its answer, or the error it raises."""
    try:
        return compare(*args), None
    except StepBudgetExceeded as exc:
        return None, exc


class Spy:
    """Replaces `convertible` and `convertible_step` wherever the program
    imported them; each comparison runs under the reference too, on a copy
    of its budget, and the two outcomes and spent counts are kept."""

    def __init__(self, monkeypatch):
        self.compared: list[tuple[bool | None, int]] = []  # (answer, steps used) per comparison
        self.mismatches: list[tuple] = []
        real_convertible, real_step = kernel.convertible, kernel.convertible_step
        made: list[Budget] = []  # the budgets the real convertible_step makes

        class Seen(Budget):
            def __init__(self, limit: int):
                super().__init__(limit)
                made.append(self)

        def convertible(calc, a, b, bud):
            ref_bud = Budget(bud.limit)
            ref_bud.used = bud.used
            want = _outcome(reference_convertible, calc, a, b, ref_bud)
            got = _outcome(real_convertible, calc, a, b, bud)
            return self._settle(got, bud.used, want, ref_bud.used, (a, b))

        def convertible_step(calc, a, c, limit):
            ref_made: list[Budget] = []
            want = _outcome(reference_step, calc, a, c, limit, ref_made)
            got = _outcome(real_step, calc, a, c, limit)
            return self._settle(got, made[-1].used, want, ref_made[-1].used, (a, c))

        monkeypatch.setattr(kernel, "Budget", Seen)
        for name in ("defuncc.kernel", "defuncc.cc", "defuncc.dcc", "defuncc.sigma"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "convertible", convertible)
            if hasattr(module, "convertible_step"):
                monkeypatch.setattr(module, "convertible_step", convertible_step)

    def _settle(self, got, used, want, ref_used, pair):
        (answer, error), (ref_answer, ref_error) = got, want
        if (answer, type(error), used) != (ref_answer, type(ref_error), ref_used):
            self.mismatches.append((pair, got, used, want, ref_used))
        self.compared.append((answer, used))
        if error is not None:
            raise error
        return answer


@pytest.fixture(scope="module")
def judgements(corpus_judgements, scaling_programs, enumerated):
    """The corpus, the scaling programs and the enumerated judgements."""
    out = [(ctx, term) for _, ctx, term in corpus_judgements] + scaling_programs()
    assert len(enumerated) == 2525
    return out + list(enumerated)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 30])
def test_every_comparison_of_the_checks_agrees(monkeypatch, judgements, budget):
    spy = Spy(monkeypatch)
    for ctx, term in judgements:
        for check in ALL_CHECKS:
            check(ctx, term, budget)
    assert spy.mismatches == []
    answers = {answer for answer, _ in spy.compared}
    # not vacuous: comparisons that hold, that spend, and (at 30) that run out;
    # every check passes on these judgements, so the generated pairs below
    # supply the comparisons that fail
    assert len(spy.compared) > 10_000 and True in answers
    assert any(used for _, used in spy.compared)
    assert (None in answers) == (budget == 30)


# ---------------------------------------------------------------------------
# Generated pairs

NAMES = ("x", "y", "f")

TERMS = st.recursive(
    st.one_of(
        st.sampled_from([Var(n) for n in NAMES]),
        st.builds(Universe, st.integers(0, 1)),
        st.just(NatType()),
        st.builds(NatLit, st.integers(0, 2)),
    ),
    lambda sub: st.one_of(
        st.builds(App, sub, sub),
        st.builds(Add, sub, sub),
        st.builds(Lam, st.sampled_from(NAMES), sub, sub),
        st.builds(Pi, st.sampled_from(NAMES), sub, sub),
    ),
    max_leaves=8,
)


def _eta(t: Term) -> Term:
    z = fresh_name("z", free_var_set(t))
    return Lam(z, NAT, App(t, Var(z)))


def _pairs(t: Term, u: Term, x: str, y: str) -> list[tuple[Term, Term]]:
    """Unrelated terms, a term against its eta expansion, and both under Π
    binders of different names."""
    return [(t, u), (t, _eta(t)), (_eta(u), u),
            (Pi(x, NAT, t), Pi(y, NAT, subst(t, x, Var(y)))),
            (Pi(x, NAT, _eta(t)), Pi(y, NAT, u))]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(TERMS, TERMS, st.sampled_from(NAMES), st.sampled_from(NAMES))
def test_generated_normal_forms_compare_alike(t, u, x, y):
    for calc in (CC, SIGMA):
        for a, b in _pairs(t, u, x, y):
            forms = []
            for s in (a, b):
                try:
                    forms.append(normalize(calc, s, Budget(200)))
                except StepBudgetExceeded:
                    break
            if len(forms) < 2:
                continue
            bud, ref_bud = Budget(200), Budget(200)
            got = _outcome(kernel.convertible, calc, *forms, bud)
            want = _outcome(reference_convertible, calc, *forms, ref_bud)
            assert (got[0], type(got[1]), bud.used) == (want[0], type(want[1]), ref_bud.used)
