"""The source calculus: the calculus of constructions with Nat, as a
description over the shared kernel, and the suspension calculus (sigma) that
extends it with explicit substitutions.

Its head redex is beta, evaluation enters every child (under lambdas too), and
lambdas are the functions the extensionality bridge unfolds.  Typing produces
explicit derivation trees; the defunctionalization pass is directed by them.
Conversions show up as explicit equivalence nodes so that every rule
application is visible to the translation.

In sigma, substitutions are first-class suspended nodes: beta produces a
suspension, suspensions push through every constructor except lambdas, and a
stuck lambda-suspension fires only when applied.
"""

from __future__ import annotations

from .errors import UnboundVariable
from .kernel import (
    DEFAULT_BUDGET,
    Budget,
    Calculus,
    Derivation,
    check_context,
    coerce,
    convertible,
    infer,
    infer_type,
    normalize,
    reduce_trace,
)
from .syntax import (
    Add,
    App,
    Ctx,
    ESubst,
    Lam,
    NatLit,
    NatType,
    Pi,
    SBind,
    Term,
    Universe,
    Var,
    _ordered_union,
    free_var_set,
    free_vars,
    freshen_binder,
    map_children,
    subst,
    subst_many,
)


def _beta(t: Term) -> Term | None:
    match t:
        case App(Lam(x, _, body), arg):
            return subst(body, x, arg)
    return None


CC_TERMS = frozenset({Var, Universe, Pi, Lam, App, NatType, NatLit, Add})

CC = Calculus(
    name="source",
    allowed=CC_TERMS,
    enters=frozenset({App, Add, Pi, Lam}),
    head=_beta,
    is_function=lambda t: isinstance(t, Lam),
)


def cc_reduce_trace(t: Term, budget: int = DEFAULT_BUDGET) -> list[Term]:
    """The full reduction sequence from t to its normal form, inclusive."""
    return reduce_trace(CC, t, Budget(budget))


def cc_normalize(t: Term, budget: int = DEFAULT_BUDGET) -> Term:
    """Full beta/delta normal form (normal order, then under binders)."""
    return normalize(CC, t, Budget(budget))


def cc_equiv(a: Term, b: Term, budget: int = DEFAULT_BUDGET) -> bool:
    return convertible(CC, a, b, Budget(budget))


def cc_check_context(ctx: Ctx, budget: int = DEFAULT_BUDGET) -> None:
    """Raise unless every assumption's type is a type in its prefix."""
    check_context(CC, ctx, Budget(budget))


def cc_infer(
    ctx: Ctx, t: Term, budget: int = DEFAULT_BUDGET, check_ctx: bool = True
) -> Derivation:
    """Infer a type for t under ctx; the result's .type is the type."""
    if check_ctx:
        cc_check_context(ctx, budget)
    return infer(CC, ctx, t, Budget(budget))


# ---------------------------------------------------------------------------
# Free-variable telescopes


def fv_telescope(ctx: Ctx, term: Term, ty: Term) -> tuple[tuple[str, Term], ...]:
    """The ordered closure telescope for the judgement ctx |- term : ty.

    Collects the free variables of term then ty (first-occurrence order),
    prefixing each variable with the telescope of its own type, deduplicating
    left to right.  The result is a well-formed sub-telescope of ctx.
    """
    memo: dict[str, tuple[tuple[str, Term], ...]] = {}

    def tele_of_vars(names: tuple[str, ...]) -> tuple[tuple[str, Term], ...]:
        acc: dict[str, Term] = {}  # first occurrence wins, in order
        types = []
        for x in names:
            a = ctx.lookup(x)
            if a is None:
                raise UnboundVariable(x)
            types.append((x, a))
        for x, a in types:
            if x not in memo:
                memo[x] = tele_of_vars(free_vars(a))
            for n, b in memo[x]:
                acc.setdefault(n, b)
        for x, a in types:
            acc.setdefault(x, a)
        return tuple(acc.items())

    return tele_of_vars(_ordered_union(free_vars(term), free_vars(ty)))


# ---------------------------------------------------------------------------
# The suspension calculus: the source calculus plus explicit substitutions


def _is_closure(t: Term) -> bool:
    """A suspension nest whose core is a lambda (the only stuck shape)."""
    while isinstance(t, ESubst):
        t = t.subject
    return isinstance(t, Lam)


def _apply_closure(c: Term, arg: Term) -> Term:
    """((lam){sigma}) arg steps to body{sigma, x:A |-> arg}.

    Nested suspension layers flatten into one telescope, outermost layer
    first.  A value of an inner layer that mentions enclosing names is
    itself suspended under those layers; binding names are freshened where
    the layers collide.  The bound variable joins the telescope last, with
    the lambda's domain as its declared type and the argument as its value;
    no capture is possible because telescope names never scope over values.
    """
    acc: list[SBind] = []
    names: set[str] = set()
    cur = c
    while isinstance(cur, ESubst):
        prefix = tuple(acc)
        for i in range(len(cur.bindings)):
            if cur.bindings[i].name in names:
                cur = freshen_binder(cur, i, names)
            sb = cur.bindings[i]
            value = sb.value
            if names and free_var_set(value) & names:
                value = ESubst(value, prefix)
            acc.append(SBind(sb.name, sb.domain, value))
            names.add(sb.name)
        cur = cur.subject
    assert isinstance(cur, Lam)
    if cur.binder in names:
        cur = freshen_binder(cur, 0, names)
    acc.append(SBind(cur.binder, cur.domain, arg))
    return ESubst(cur.body, tuple(acc))


def _head(t: Term) -> Term | None:
    """A redex at the root, if any: beta, stuck-closure application, or one
    substitution push."""
    match t:
        case App(Lam(x, dom, body), arg):
            return ESubst(body, (SBind(x, dom, arg),))
        case App(c, arg) if _is_closure(c):
            return _apply_closure(c, arg)
        case ESubst(subject, bindings):
            if not bindings:
                return subject
            match subject:
                case Var(y):
                    for sb in bindings:
                        if sb.name == y:
                            return sb.value
                    return subject
                case Universe() | NatType() | NatLit():
                    return subject
                case Pi() | App() | Add():
                    if type(subject) is Pi:  # its binder must not capture what the push carries
                        avoid = {sb.name for sb in bindings}
                        for sb in bindings:
                            avoid |= free_var_set(sb.value) | free_var_set(sb.domain)
                        if subject.binder in avoid:
                            subject = freshen_binder(subject, 0, avoid)
                    return map_children(lambda c: ESubst(c, bindings), subject)
    return None  # no redex, a stuck closure, or a subject to reduce first


def _ty_subst(calc: Calculus, ctx: Ctx, t: ESubst, b: Budget) -> Derivation:
    """Telescope discipline, as for label closures: each value is checked in
    the outer context against its declared type with the earlier values
    substituted in, and the subject is typed under the declared types
    themselves."""
    inner_ctx = ctx
    seen: dict[str, Term] = {}
    val_derivs: list[Derivation] = []
    for i in range(len(t.bindings)):
        sb = t.bindings[i]
        infer_type(calc, inner_ctx, sb.domain, b)
        want = subst_many(sb.domain, seen)
        dv = coerce(calc, ctx, infer(calc, ctx, sb.value, b), want, b, "suspended value")
        if sb.name in inner_ctx:
            t = freshen_binder(t, i, inner_ctx.names())
            sb = t.bindings[i]
        inner_ctx = inner_ctx.extend(sb.name, sb.domain)
        seen[sb.name] = sb.value
        val_derivs.append(dv)
    dm = infer(calc, inner_ctx, t.subject, b)
    return Derivation("s-ty-Subst", ctx, t, ESubst(dm.type, t.bindings), (dm, *val_derivs))


SIGMA = Calculus(
    name="suspension",
    allowed=CC_TERMS | {ESubst},
    # no Lam: functions are values, so no step rewrites inside a lambda, a
    # reduct never holds a function its redex lacked, and the definitions a
    # translation extracts shrink along every step; differences under a binder
    # are left to the equivalence
    enters=frozenset({App, Add, Pi, ESubst}),
    head=_head,
    is_function=lambda t: isinstance(t, (Lam, ESubst)),
    # the result of an application is the codomain under a suspension, dropped
    # when it binds nothing there: the garbage-collection rule of explicit substitutions
    instantiate=lambda pi, arg: ESubst(pi.codomain, (SBind(pi.binder, pi.domain, arg),))
    if pi.binder in free_vars(pi.codomain) else pi.codomain,
    rules={ESubst: _ty_subst},
)
