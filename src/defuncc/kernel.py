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
from operator import is_not
from typing import Callable

from .errors import (
    DefunccError,
    IllFormedContext,
    NotAFunction,
    NotAType,
    StepBudgetExceeded,
    TypeMismatch,
    UnboundVariable,
)
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
    _aeq,
    _BINDING,
    _scopes,
    alpha_eq,
    children,
    free_var_set,
    free_vars,
    fresh_name,
    freshen_binder,
    frozen_slotted,
    rebuild,
    subst,
)

DEFAULT_BUDGET = 1_000_000


class Budget:
    """Counts reduction steps; the step past the limit raises."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, steps: int = 1) -> None:
        self.used += steps
        if self.used > self.limit:
            raise StepBudgetExceeded(self.limit)


@frozen_slotted
class Derivation:
    """One typing judgement ctx |- subject : type plus its premises.

    Every check builds derivations in bulk, so a derivation is a frozen
    slotted record built through its slots (`syntax.frozen_slotted`); it is
    never changed once built."""

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
    # read function types in normal form
    type_only: bool = False
    # key -> (a derivation, the steps it spent), read and filled by `infer`;
    # only run-scoped copies carry one: a translation run's of `cc.CC` and
    # `cc.SIGMA`, and the one a label check shares among its label contexts
    table: dict | None = None
    closed_table: bool = False  # the table keys closed terms alone; else (ctx, term)


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
    """Normal form: weak head normal form, then the entered children.  A term
    already in normal form comes back as the same object."""
    t = whnf(calc, t, b)
    if type(t) not in calc.enters:
        return t
    kids = children(t)
    new = list(kids)
    for i in range(_entered(t, kids)):  # a loop, not a comprehension: one frame a level
        new[i] = normalize(calc, kids[i], b)
    return rebuild(t, tuple(new)) if any(map(is_not, new, kids)) else t


# ---------------------------------------------------------------------------
# Conversion: compare normal forms, bridging functions by eta


def convertible(calc: Calculus, a: Term, b: Term, bud: Budget) -> bool:
    a, b = normalize(calc, a, bud), normalize(calc, b, bud)
    return alpha_eq(a, b) or _equiv_nf(calc, a, b, bud, {}, {}, 0)


def convertible_step(calc: Calculus, a: Term, c: Term, limit: int) -> bool:
    """`convertible(calc, a, c, Budget(limit))` for a state a and the state c
    one step on.  The pair is decided at the step's hole first, on a budget
    of its own (`_at_hole`); a pair that rule leaves open, or runs out of
    budget in, is compared as whole states by `convertible`, so every False
    and every exhausted budget comes from whole states."""
    try:
        if _at_hole(calc, a, c, Budget(limit)):
            return True
    except DefunccError:  # its budget ran out, or a label it unfolded is unknown
        pass
    return convertible(calc, a, c, Budget(limit))


def _at_hole(calc: Calculus, a: Term, c: Term, bud: Budget) -> bool:
    """Whether a converts to c by one contraction where they differ.  One walk
    descends while the nodes agree in constructor, tag and binder names and
    exactly one child differs by identity (`reduce_step` rebuilds only the
    redex path).  The pair holds if the deepest nodes are α-equal, or if a
    node of the path, deepest first, contracts (one step) to what meets the
    other side in `_equiv_nf` with `_apply_head`: conversion is a congruence."""
    path = [(a, c)]
    while type(a) is type(c) and (entry := _BINDING.get(type(a))) is not None:
        (tag_a, names_a, kids_a), (tag_c, names_c, kids_c) = entry[0](a), entry[0](c)
        if tag_a != tag_c or names_a != names_c or len(kids_a) != len(kids_c):
            break
        differ = [(p, q) for (_, p), (_, q) in zip(kids_a, kids_c) if p is not q]
        if len(differ) != 1:
            break
        a, c = differ[0]
        path.append((a, c))
    if alpha_eq(a, c):
        return True
    for a, c in reversed(path):
        r = _contract(calc, a)
        if r is not None:
            bud.spend()
            if _equiv_nf(calc, r, c, bud, {}, {}, 0, _apply_head):
                return True
    return False


def _apply_head(calc: Calculus, t: Term, z: str, b: Budget) -> Term | None:
    """t applied to the fresh name z, contracted at the root (one step)."""
    r = calc.head(App(t, Var(z)))
    if r is not None:
        b.spend()
    return r


def _pushed(calc: Calculus, t: Term, b: Budget) -> Term:
    """t with the suspensions at its head pushed, or dropped whole if they bind
    nothing in their subject (garbage collection), one step each."""
    while type(t) is ESubst:
        fv = free_vars(t.subject)
        r = calc.head(t) if any(sb.name in fv for sb in t.bindings) else t.subject
        if r is None:
            break
        b.spend()
        t = r
    return t


def _equiv_nf(calc: Calculus, a: Term, b: Term, bud: Budget, enva: dict[str, int],
              envb: dict[str, int], depth: int, unfold: Callable | None = None) -> bool:
    """Equivalence of normal forms under binder maps (name -> binding level,
    as `_aeq` keeps them), so no bound name is renamed.  Products,
    applications, additions and label closures compare part by part; any
    other pair is equal if `_aeq` says so.  Failing that, when either side is
    a function, both are applied to a common fresh name and compared again:
    the beta step this spends from the budget is what bounds the bridge.

    The hole rule passes `unfold=_apply_head` and terms that need not be
    normal: both heads are `_pushed` first, identical nodes compare at once,
    and the bridge contracts only the application it makes; so nothing the
    step left alone is contracted."""
    if unfold is not None:
        a, b = _pushed(calc, a, bud), _pushed(calc, b, bud)
        if a is b:
            return _aeq(a, b, enva, envb, depth)
    ta = type(a)
    if ta is type(b) and ta in (Pi, App, Add, Label):  # compared part by part
        split = _BINDING[ta][0]
        (tag_a, names_a, kids_a), (tag_b, names_b, kids_b) = split(a), split(b)
        if tag_a == tag_b and len(kids_a) == len(kids_b):
            envs_a, envs_b = _scopes(enva, names_a, depth), _scopes(envb, names_b, depth)
            for (n, p), (_, q) in zip(kids_a, kids_b):
                if not _equiv_nf(calc, p, q, bud, envs_a[n], envs_b[n], depth + n, unfold):
                    break
            else:
                return True
        if ta is not Label:
            return False
        # the closures differ; the bridge below may still equate the labels
    elif _aeq(a, b, enva, envb, depth):
        return True
    if calc.is_function(a) or calc.is_function(b):
        z = fresh_name("x", {*enva, *envb}.union(free_vars(a), free_vars(b)))
        a2 = (unfold or calc.unfold)(calc, a, z, bud)
        if a2 is None:
            return False
        b2 = (unfold or calc.unfold)(calc, b, z, bud)
        return b2 is not None and _equiv_nf(calc, a2, b2, bud, enva, envb, depth, unfold)
    return False


# ---------------------------------------------------------------------------
# Typing


def infer(calc: Calculus, ctx: Ctx, t: Term, b: Budget) -> Derivation:
    """The derivation of ctx |- t : T; its .type is T.  Its premises are about
    the parts of t only: a variable has none, an application has the function
    and the argument, a conversion the converted derivation.

    A calculus with a table derives each `(ctx, t)` once, exactly: inference
    is a function of `(ctx, t)`, a hit charges the steps the derivation spent
    and failures are never stored, so a budget runs out on the same
    judgements (`StepBudgetExceeded` carries only the limit).  With
    `closed_table`, a closed t is keyed alone and derived in the empty context:
    in a calculus without lambda a binder rename changes no type, so a closed
    term has one type and one step count in every context.  A binder bound
    in ctx is renamed, but for `_`: no variable is named `_`, so none is captured."""
    if type(t) not in calc.allowed:
        raise NotAType(t, calculus=calc.name)
    table = calc.table
    if table is not None and calc.closed_table:  # an open term is not tabled
        table, ctx = (None, ctx) if free_vars(t) else (table, Ctx())
    if table is not None:
        key, used = (t if calc.closed_table else (ctx, t)), b.used
        hit = table.get(key)
        if hit is not None:
            b.spend(hit[1])
            return hit[0]
    if type(t) in (Pi, Lam) and t.binder != "_" and t.binder in ctx:
        t = freshen_binder(t, 0, ctx.names())
    match t:
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None or name == "_":
                raise UnboundVariable(name)
            d = Derivation("ty-Var", ctx, t, ty)
        case Universe(i):
            d = Derivation("ty-Universe", ctx, t, Universe(i + 1))
        case NatType():
            d = Derivation("ty-Nat", ctx, t, Universe(0))
        case NatLit():
            d = Derivation("ty-NatLit", ctx, t, NatType())
        case Add(lhs, rhs):
            premises = tuple(
                coerce(calc, ctx, infer(calc, ctx, m, b), NAT, b, f"{side} operand of add")
                for side, m in (("left", lhs), ("right", rhs))
            )
            d = Derivation("ty-Add", ctx, t, NAT, premises)
        case Pi(x, domain, codomain):
            da, i = infer_type(calc, ctx, domain, b)
            db, j = infer_type(calc, ctx.extend(x, domain), codomain, b)
            d = Derivation("ty-Pi", ctx, t, Universe(max(i, j)), (da, db))
        case Lam(x, domain, body):
            da, _ = infer_type(calc, ctx, domain, b)
            dm = infer(calc, ctx.extend(x, domain), body, b)
            d = Derivation("ty-Lambda", ctx, t, Pi(x, domain, dm.type), (da, dm))
        case App(fn, arg):
            dm = infer(calc, ctx, fn, b)
            fn_ty = normalize(calc, dm.type, b) if calc.type_only else dm.type
            if not isinstance(fn_ty, Pi):
                w = normalize(calc, fn_ty, b)
                if not isinstance(w, Pi):
                    raise NotAFunction(fn, fn_ty)
                dm = _conversion(ctx, dm, fn, w)
                fn_ty = w
            dn = coerce(calc, ctx, infer(calc, ctx, arg, b), fn_ty.domain, b, "argument")
            d = Derivation("ty-Apply", ctx, t, calc.instantiate(fn_ty, arg), (dm, dn))
        case _:
            d = calc.rules[type(t)](calc, ctx, t, b)
    if table is not None:
        table[key] = (d, b.used - used)
    return d


def _conversion(ctx: Ctx, d: Derivation, subject: Term, target: Term) -> Derivation:
    """ctx |- subject : target, from d by conversion."""
    return Derivation("ty-Equiv", ctx, subject, target, (d,))


def infer_type(calc: Calculus, ctx: Ctx, t: Term, b: Budget) -> tuple[Derivation, int]:
    """Infer t and coerce its type to a universe; returns the level too."""
    d = infer(calc, ctx, t, b)
    if isinstance(d.type, Universe):
        return d, d.type.level
    w = normalize(calc, d.type, b)
    if isinstance(w, Universe):
        return _conversion(ctx, d, t, w), w.level
    raise NotAType(t, d.type)


def coerce(
    calc: Calculus, ctx: Ctx, d: Derivation, want: Term, b: Budget, where: str
) -> Derivation:
    """Wrap d in a conversion node so its type becomes `want`."""
    if alpha_eq(d.type, want):
        return d
    if not convertible(calc, d.type, want, b):
        raise TypeMismatch(want, d.type, where)
    return _conversion(ctx, d, d.subject, want)


def check_context(calc: Calculus, ctx: Ctx, b: Budget) -> None:
    """Raise unless every assumption's type is a type in its prefix."""
    prefix, bound = Ctx(), set()  # grown per entry: no entry rescans those before it
    for name, ty in ctx:
        if name in bound:
            raise IllFormedContext(f"context binds {name!r} twice")
        extra = free_var_set(ty) - bound
        if extra:
            raise IllFormedContext(
                f"type of {name!r} mentions later or unbound names {sorted(extra)}"
            )
        try:
            infer_type(calc, prefix, ty, b)
        except NotAType as exc:
            raise IllFormedContext(f"type of {name!r} is not a type: {exc}") from exc
        prefix = prefix.extend(name, ty)
        bound.add(name)
