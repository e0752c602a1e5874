"""Backward translation: rebuild a lambda from every label application.

A label applied to its closure becomes the entry's lambda with the closure
values (themselves translated back) substituted for the telescope names.
Purely structural given the label context; `refun` additionally re-checks its
input first so ill-typed programs are rejected rather than mistranslated.
"""

from __future__ import annotations

from .dcc import _closure, dcc_check, dcc_infer
from .kernel import DEFAULT_BUDGET
from .syntax import Ctx, ESubst, Label, LabelCtx, Lam, Term, map_children, subst_many


def refun_expr(defs: LabelCtx, t: Term) -> Term:
    match t:
        case Label(i, args):
            e, mapping = _closure(defs, i, tuple(refun_expr(defs, a) for a in args))
            lam = Lam(e.arg_name, refun_expr(defs, e.arg_type), refun_expr(defs, e.body))
            return subst_many(lam, mapping)
        case Lam() | ESubst():
            raise TypeError(f"not a target term: {t!r}")
    return map_children(lambda c: refun_expr(defs, c), t)


def refun_context(defs: LabelCtx, ctx: Ctx) -> Ctx:
    return Ctx(tuple((x, refun_expr(defs, a)) for x, a in ctx))


def refun(
    defs: LabelCtx, ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET
) -> tuple[Ctx, Term]:
    """Re-check the judgement, then translate the context and term back."""
    dcc_check(defs, ctx, budget)
    dcc_infer(defs, ctx, term, budget)
    return refun_context(defs, ctx), refun_expr(defs, term)
