"""Explicit-substitution oracle for the reduction-preservation story.

The source calculus is embedded (shared representation) into a variant whose
substitutions are first-class suspended nodes: beta produces a suspension,
suspensions push through every constructor except lambdas, and a stuck
lambda-suspension fires only when applied.  Because substitution never
happens spontaneously, translating a reduction sequence step by step can be
compared against the direct translation, which is what check_diagram does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .cc import CC_TERMS, cc_infer, cc_reduce_trace
from .dcc import dcc_check, dcc_equiv, dcc_infer, dcc_normalize
from .defun import Translation, _union, defun
from .errors import DefunccError, DiagramFailure, StepBudgetExceeded
from .kernel import (
    DEFAULT_BUDGET,
    Budget,
    Calculus,
    Derivation,
    coerce,
    convertible,
    infer,
    infer_type,
    normalize,
    reduce_step,
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
    alpha_eq,
    free_var_set,
    freshen_binder,
    map_children,
    subst_many,
    uses_only,
)


def sigma_embed(t: Term) -> Term:
    """Source terms are suspension-calculus terms as they stand."""
    if not uses_only(t, CC_TERMS):
        raise TypeError("only source-calculus terms embed")
    return t


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
    enters=frozenset({App, Add, Pi, ESubst}),
    head=_head,
    is_function=lambda t: isinstance(t, (Lam, ESubst)),
    # the result of an application is the codomain under a suspension
    instantiate=lambda pi, arg: ESubst(pi.codomain, (SBind(pi.binder, pi.domain, arg),)),
    rules={ESubst: _ty_subst},
)


def is_ccs_term(t: Term) -> bool:
    return uses_only(t, SIGMA.allowed)


def ccs_reduce_step(t: Term) -> Term | None:
    """One leftmost-outermost step; None when t is sigma-normal.

    Functions are values here: no step ever rewrites inside a lambda, so a
    reduct can never contain a function the redex lacked, and definition
    extraction is monotone along every step.  Differences hidden under a
    binder are recovered by the equivalence, not the reduction.
    """
    return reduce_step(SIGMA, t)


def ccs_reduce_trace(t: Term, budget: int = DEFAULT_BUDGET) -> list[Term]:
    return reduce_trace(SIGMA, t, Budget(budget))


def ccs_normalize(t: Term, budget: int = DEFAULT_BUDGET) -> Term:
    return normalize(SIGMA, t, Budget(budget))


def ccs_equiv(a: Term, b: Term, budget: int = DEFAULT_BUDGET) -> bool:
    return convertible(SIGMA, a, b, Budget(budget))


def _s_infer(ctx: Ctx, t: Term, b: Budget) -> Derivation:
    return infer(SIGMA, ctx, t, b)


def ccs_infer(ctx: Ctx, t: Term, budget: int = DEFAULT_BUDGET) -> Derivation:
    SIGMA.check_term(t)
    return _s_infer(ctx, t, Budget(budget))


# ---------------------------------------------------------------------------
# The commuting diagram


class Judgement:
    """One judgement as the metatheory checks share it: `translation()` (with
    the source derivation it walked, checked with the context), the translated
    term's `target_type()` and `target_nf()` under the translation's labels,
    the source reduction `trace()` ending in the normal form, and that normal
    form's `nf_derivation()`.  Each is built on first use; a failure is not
    kept, so each check that reads it meets it."""

    def __init__(self, ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET, translate=defun):
        self.ctx, self.term, self.budget = ctx, term, budget
        res = self.translation = functools.cache(lambda: translate(ctx, term, budget))
        self.target_type = functools.cache(
            lambda: dcc_infer(res().labels, res().dcc_ctx, res().term, budget, check_ctx=False)
        )
        self.target_nf = functools.cache(lambda: dcc_normalize(res().labels, res().term, budget))
        # no closure refers to the judgement, so dropping it frees them at once
        trace = self.trace = functools.cache(lambda: cc_reduce_trace(term, budget))
        self.nf_derivation = functools.cache(
            lambda: cc_infer(ctx, trace()[-1], budget, check_ctx=False)
        )


@dataclass(frozen=True)
class DiagramEdge:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class DiagramReport:
    ok: bool
    edges: tuple[DiagramEdge, ...]
    cc_steps: int
    sigma_steps: int
    labels: int
    subst_nodes: int


def check_diagram(j: Judgement, raise_on_failure: bool = True) -> DiagramReport:
    """Check, for one judgement, that reduction and translation commute.

    Edges: the suspension calculus simulates every source step; translating
    the embedded term agrees with translating the source term; definitions
    shrink (never grow) along suspension steps; the translated term reduces,
    step-translated, to something equivalent to the translated normal form;
    and the whole thing happens under a well-formed label context.
    """
    edges: list[DiagramEdge] = []

    def edge(name: str, ok: bool, detail: str = "") -> None:
        edges.append(DiagramEdge(name, ok, detail))
        if raise_on_failure and not ok:
            raise DiagramFailure(name, detail)

    def steps_edge(name: str, states: list, related, kind: str, failure: str) -> None:
        """An edge that holds when every state is related to the next one."""
        n = len(states) - 1
        bad = next((i for i in range(n) if not related(states[i], states[i + 1])), None)
        detail = f"{n} {kind}step(s)" if bad is None else f"step {bad}: {failure}"
        edge(name, bad is None, detail)

    ctx, term, budget = j.ctx, j.term, j.budget
    deriv = j.translation().derivation
    cc_trace = j.trace()
    s_trace = ccs_reduce_trace(sigma_embed(term), budget)

    steps_edge(
        "sigma-simulates-cc-step",
        cc_trace,
        lambda a, b: ccs_equiv(a, b, budget),
        "source ",
        "embedded redex and reduct are not sigma-equivalent",
    )
    edge(
        "sigma-reaches-cc-normal-form",
        ccs_equiv(term, cc_trace[-1], budget),
        "sigma-normal form of the embedding vs the source normal form",
    )

    run = Translation(infer=lambda c, t: _s_infer(c, t, Budget(budget)))
    dcc_ctx, ctx_pids = run.translate_context(ctx)
    term_cc_t, term_cc_pids = run.translate(deriv)
    nf_t, nf_pids = run.translate(j.nf_derivation())

    state_ts: list[Term] = []
    state_pids: list[tuple[int, ...]] = []
    for x in s_trace:
        dx = _s_infer(ctx, x, Budget(budget))
        tx, px = run.translate(dx)
        state_ts.append(tx)
        state_pids.append(px)

    edge(
        "embedding-translates-identically",
        alpha_eq(term_cc_t, state_ts[0]),
        "translation of the source derivation vs the embedded derivation",
    )
    steps_edge(
        "defs-monotone-along-sigma-step",
        state_pids,
        lambda redex, reduct: set(reduct) <= set(redex),
        "suspension ",
        "reduct mints definitions the redex lacked",
    )

    all_pids = _union(ctx_pids, term_cc_pids, nf_pids, *state_pids)
    ren = run.finalize()
    defs = ren.label_ctx(all_pids)
    f_ctx = ren.ctx(dcc_ctx)
    try:
        dcc_check(defs, f_ctx, budget)
        edge("dcc-context-well-formed", True, f"{len(defs)} label(s)")
    except DefunccError as exc:
        edge("dcc-context-well-formed", False, str(exc))

    steps_edge(
        "dcc-preserves-sigma-step",
        [ren.term(t) for t in state_ts],
        lambda a, b: dcc_equiv(defs, a, b, budget),
        "",
        "translated redex and reduct differ",
    )

    f_term = ren.term(term_cc_t)
    f_nf = ren.term(nf_t)
    try:
        dcc_normalize(defs, f_term, budget)
        terminated = True
    except StepBudgetExceeded:
        terminated = False
    edge("dcc-translation-normalizes", terminated, "")
    edge(
        "dcc-coherence",
        dcc_equiv(defs, f_term, f_nf, budget),
        "translated term vs translated normal form",
    )

    ok = all(e.ok for e in edges)
    return DiagramReport(
        ok=ok,
        edges=tuple(edges),
        cc_steps=len(cc_trace) - 1,
        sigma_steps=len(s_trace) - 1,
        labels=len(defs),
        subst_nodes=run.subst_nodes,
    )
