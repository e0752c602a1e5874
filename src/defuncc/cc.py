"""The source calculus: the calculus of constructions with Nat, as a
description over the shared kernel.

Its head redex is beta, evaluation enters every child (under lambdas too), and
lambdas are the functions the extensionality bridge unfolds.  Typing produces
explicit derivation trees; the defunctionalization pass is directed by them.
Conversions show up as explicit equivalence nodes so that every rule
application is visible to the translation.
"""

from __future__ import annotations

from .errors import TypeCheckError, UnboundVariable
from .kernel import (
    DEFAULT_BUDGET,
    Budget,
    Calculus,
    Derivation,
    check_context,
    convertible,
    infer,
    normalize,
    reduce_step,
    reduce_trace,
)
from .syntax import (
    Add,
    App,
    Ctx,
    Lam,
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    free_vars,
    rename_free,
    subst,
)


def _beta(t: Term) -> Term | None:
    match t:
        case App(Lam(x, _, body), arg):
            return subst(body, x, arg)
    return None


def _eta(calc: Calculus, t: Term, z: str, b: Budget) -> Term:
    """A lambda normal form applied to z is its renamed body; any other normal
    form applied to z is already normal.  Neither takes a step."""
    if isinstance(t, Lam):
        return rename_free(t.body, t.binder, z)
    return App(t, Var(z))


CC_TERMS = frozenset({Var, Universe, Pi, Lam, App, NatType, NatLit, Add})

CC = Calculus(
    name="source",
    allowed=CC_TERMS,
    enters=frozenset({App, Add, Pi, Lam}),
    head=_beta,
    is_function=lambda t: isinstance(t, Lam),
    unfold=_eta,
)


def cc_reduce_step(t: Term) -> Term | None:
    """One leftmost-outermost step (under binders); None if t is normal."""
    return reduce_step(CC, t)


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


def cc_wf_context(ctx: Ctx, budget: int = DEFAULT_BUDGET) -> tuple[bool, str | None]:
    try:
        cc_check_context(ctx, budget)
        return True, None
    except TypeCheckError as exc:
        return False, str(exc)


def cc_infer(
    ctx: Ctx, t: Term, budget: int = DEFAULT_BUDGET, check_ctx: bool = True
) -> Derivation:
    """Infer a type for t under ctx; the result's .type is the type."""
    CC.check_term(t)
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

    return tele_of_vars(tuple(dict.fromkeys(free_vars(term) + free_vars(ty))))
