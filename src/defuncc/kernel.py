"""One kernel for the three calculi: reduction, conversion and typing.

The source calculus (CC), the label calculus (DCC) and the explicit-
substitution calculus (sigma) share their terms, their congruence rules and
their judgements.  They differ in what unfolds at a head, which children
evaluation enters, which normal forms the extensionality bridge treats as
functions, which constructors they allow, and a typing rule or two of their
own.  A `Calculus` records exactly those choices; everything else lives here
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    IllFormedContext,
    NotAFunction,
    NotAType,
    StepBudgetExceeded,
    TypeMismatch,
    UnboundVariable,
)
from .surface import show_term
from .syntax import (
    NAT,
    Add,
    App,
    Ctx,
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
    rebuild,
    rename_free,
    subst,
    uses_only,
)

DEFAULT_BUDGET = 1_000_000

# Conversion gives up (answers "not equal") below this many nested comparisons.
ETA_DEPTH_LIMIT = 64


class Budget:
    """Counts reduction steps; the step past the limit raises."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise StepBudgetExceeded(self.limit)


@dataclass(frozen=True)
class Derivation:
    """One typing judgement ctx |- subject : type plus its premises."""

    rule: str
    ctx: Ctx
    subject: Term
    type: Term
    children: tuple["Derivation", ...] = ()


def apply_fresh(calc: "Calculus", t: Term, z: str, b: Budget) -> Term:
    """t applied to the fresh name z, in normal form."""
    return normalize(calc, App(t, Var(z)), b)


def _substitute(pi: Pi, arg: Term) -> Term:
    return subst(pi.codomain, pi.binder, arg)


@dataclass(eq=False, slots=True)
class Calculus:
    """What sets one calculus apart from the other two (never mutated; not
    frozen only because the label calculus builds one per label context and
    frozen construction costs three times as much)."""

    name: str  # as in "constructor not part of the source calculus"
    allowed: frozenset[type]  # the constructors its terms may use
    enters: frozenset[type]  # the constructors whose children evaluation enters
    # its own redexes (at an application or a suspension), contracted
    head: Callable[[Term], Term | None]
    is_function: Callable[[Term], bool]  # normal forms the eta bridge applies
    # such a normal form applied to a fresh name; None: it cannot be unfolded
    unfold: Callable[["Calculus", Term, str, Budget], Term | None] = apply_fresh
    instantiate: Callable[[Pi, Term], Term] = _substitute  # the type of an application
    rules: dict = field(default_factory=dict)  # typing rules only it has, by constructor
    # Infer only the type: no premises that re-derive a variable's, a
    # result's or a conversion target's type; function types read in normal form.
    type_only: bool = False

    def check_term(self, t: Term) -> None:
        if not uses_only(t, self.allowed):
            raise NotAType(f"term uses constructors outside the {self.name} calculus")


# ---------------------------------------------------------------------------
# Reduction


def _contract(calc: Calculus, t: Term) -> Term | None:
    """The redex at the root of t, contracted; None if the root is no redex."""
    tt = type(t)
    if tt is App or tt is ESubst:
        return calc.head(t)
    if tt is Add and type(t.lhs) is NatLit and type(t.rhs) is NatLit:
        return NatLit(t.lhs.value + t.rhs.value)
    return None


def _entered(t: Term, kids: tuple[Term, ...]) -> int:
    """How many leading children of t evaluation enters, once it enters t at
    all: a suspension's subject and values, never its domains."""
    return 1 + len(t.bindings) if type(t) is ESubst else len(kids)


def reduce_step(calc: Calculus, t: Term) -> Term | None:
    """One leftmost-outermost step; None if t is normal."""
    r = _contract(calc, t)
    if r is not None:
        return r
    if type(t) in calc.enters:
        kids = children(t)
        for i in range(_entered(t, kids)):
            s = reduce_step(calc, kids[i])
            if s is not None:
                return rebuild(t, kids[:i] + (s,) + kids[i + 1 :])
    return None


def reduce_trace(calc: Calculus, t: Term, b: Budget) -> list[Term]:
    """The full reduction sequence from t to its normal form, inclusive."""
    trace = [t]
    while (s := reduce_step(calc, trace[-1])) is not None:
        b.spend()
        trace.append(s)
    return trace


def whnf(calc: Calculus, t: Term, b: Budget) -> Term:
    """Contract head redexes until none is left.  A term already in weak head
    normal form comes back as the same object."""
    while True:
        match t:
            case App(fn, arg):
                r = calc.head(t)
                if r is None:
                    fn2 = whnf(calc, fn, b)
                    if fn2 is fn:
                        return t
                    t = App(fn2, arg)
                    continue
            case Add(lhs, rhs):
                l2 = whnf(calc, lhs, b)
                r2 = whnf(calc, rhs, b)
                if type(l2) is NatLit and type(r2) is NatLit:
                    r = NatLit(l2.value + r2.value)
                elif l2 is lhs and r2 is rhs:
                    return t
                else:
                    t = Add(l2, r2)
                    continue
            case ESubst(m, binds):
                r = calc.head(t)
                if r is None:
                    m2 = whnf(calc, m, b)
                    if m2 is m:
                        return t
                    t = ESubst(m2, binds)
                    continue
            case _:
                return t
        b.spend()
        t = r


def normalize(calc: Calculus, t: Term, b: Budget) -> Term:
    """Normal form: weak head normal form, then the entered children."""
    t = whnf(calc, t, b)
    if type(t) not in calc.enters:
        return t
    kids = children(t)
    n = _entered(t, kids)
    return rebuild(t, tuple([normalize(calc, k, b) for k in kids[:n]]) + kids[n:])


# ---------------------------------------------------------------------------
# Conversion: compare normal forms, bridging functions by eta


def convertible(calc: Calculus, a: Term, b: Term, bud: Budget) -> bool:
    return _equiv_nf(calc, normalize(calc, a, bud), normalize(calc, b, bud), 0, bud)


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
            return _equiv_nf(calc, rename_free(b1, x, z), rename_free(b2, y, z), d, bud)
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


# ---------------------------------------------------------------------------
# Typing


def infer(calc: Calculus, ctx: Ctx, t: Term, b: Budget) -> Derivation:
    """The derivation of ctx |- t : T; its .type is T.  A type-only calculus
    gets the same judgement without the premises that merely re-derive a
    type."""
    if type(t) not in calc.allowed:
        raise NotAType(f"constructor not part of the {calc.name} calculus: {show_term(t)}")
    match t:
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise UnboundVariable(name)
            return Derivation("ty-Var", ctx, t, ty, _type_premise(calc, ctx, ty, b))
        case Universe(i):
            return Derivation("ty-Universe", ctx, t, Universe(i + 1))
        case NatType():
            return Derivation("ty-Nat", ctx, t, Universe(0))
        case NatLit():
            return Derivation("ty-NatLit", ctx, t, NatType())
        case Add(lhs, rhs):
            premises = tuple(
                coerce(calc, ctx, infer(calc, ctx, m, b), NAT, b, f"{side} operand of add")
                for side, m in (("left", lhs), ("right", rhs))
            )
            return Derivation("ty-Add", ctx, t, NAT, premises)
        case Pi(x, domain, codomain):
            da, i = infer_type(calc, ctx, domain, b)
            if x in ctx:
                x, codomain = _freshen(ctx, x, codomain)
                t = Pi(x, domain, codomain)
            db, j = infer_type(calc, ctx.extend(x, domain), codomain, b)
            return Derivation("ty-Pi", ctx, t, Universe(max(i, j)), (da, db))
        case Lam(x, domain, body):
            da, _ = infer_type(calc, ctx, domain, b)
            if x in ctx:
                x, body = _freshen(ctx, x, body)
                t = Lam(x, domain, body)
            dm = infer(calc, ctx.extend(x, domain), body, b)
            return Derivation("ty-Lambda", ctx, t, Pi(x, domain, dm.type), (da, dm))
        case App(fn, arg):
            dm = infer(calc, ctx, fn, b)
            fn_ty = normalize(calc, dm.type, b) if calc.type_only else dm.type
            if not isinstance(fn_ty, Pi):
                w = normalize(calc, fn_ty, b)
                if not isinstance(w, Pi):
                    raise NotAFunction(f"{show_term(fn)} has type {show_term(fn_ty)}")
                dm = _conversion(calc, ctx, dm, fn, w, b)
                fn_ty = w
            dn = coerce(calc, ctx, infer(calc, ctx, arg, b), fn_ty.domain, b, "argument")
            result = calc.instantiate(fn_ty, arg)
            premises = (dm, dn, *_type_premise(calc, ctx, result, b))
            return Derivation("ty-Apply", ctx, t, result, premises)
    return calc.rules[type(t)](calc, ctx, t, b)


def _type_premise(calc: Calculus, ctx: Ctx, ty: Term, b: Budget) -> tuple[Derivation, ...]:
    return () if calc.type_only else (infer(calc, ctx, ty, b),)


def _conversion(
    calc: Calculus, ctx: Ctx, d: Derivation, subject: Term, target: Term, b: Budget
) -> Derivation:
    """ctx |- subject : target, from d by conversion."""
    premises = (d, *_type_premise(calc, ctx, target, b))
    return Derivation("ty-Equiv", ctx, subject, target, premises)


def _freshen(ctx: Ctx, x: str, body: Term) -> tuple[str, Term]:
    """Rename the binder x of body away from the names ctx already binds."""
    x2 = fresh_name(x, set(ctx.names()) | free_var_set(body))
    return x2, rename_free(body, x, x2)


def infer_type(calc: Calculus, ctx: Ctx, t: Term, b: Budget) -> tuple[Derivation, int]:
    """Infer t and coerce its type to a universe; returns the level too."""
    d = infer(calc, ctx, t, b)
    if isinstance(d.type, Universe):
        return d, d.type.level
    w = normalize(calc, d.type, b)
    if isinstance(w, Universe):
        return _conversion(calc, ctx, d, t, w, b), w.level
    raise NotAType(f"{show_term(t)} has type {show_term(d.type)}")


def coerce(
    calc: Calculus, ctx: Ctx, d: Derivation, want: Term, b: Budget, where: str
) -> Derivation:
    """Wrap d in a conversion node so its type becomes `want`."""
    if alpha_eq(d.type, want):
        return d
    if not convertible(calc, d.type, want, b):
        raise TypeMismatch(show_term(want), show_term(d.type), where)
    return _conversion(calc, ctx, d, d.subject, want, b)


def check_context(calc: Calculus, ctx: Ctx, b: Budget) -> None:
    """Raise unless every assumption's type is a type in its prefix."""
    seen: list[tuple[str, Term]] = []
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
