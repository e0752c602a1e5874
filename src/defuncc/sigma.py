"""Explicit-substitution oracle for the reduction-preservation story.

Source terms are terms of the suspension calculus (`cc.SIGMA`) as they
stand, and its substitutions never happen spontaneously, so translating a
reduction sequence step by step can be compared against the direct
translation, which is what check_diagram does.  This module holds the
suspension calculus's entry points (`ccs_reduce_trace`, `ccs_equiv`,
`ccs_infer`), the `Judgement` the metatheory checks share, and the
commuting diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cc import SIGMA, cc_infer, cc_reduce_trace
from .dcc import check_labels, dcc_calculus, dcc_check, dcc_equiv, dcc_infer, dcc_normalize
# Translation stays a module attribute: perfbench/tracing.py replaces it here
from .defun import Translation, defun  # noqa: F401
from .errors import DefunccError, DiagramFailure, StepBudgetExceeded, TypeCheckError
from .kernel import DEFAULT_BUDGET, Budget, Calculus, Derivation, convertible, infer, reduce_trace
from .kernel import convertible_step
from .syntax import Ctx, Term, alpha_eq


def ccs_reduce_trace(t: Term, budget: int = DEFAULT_BUDGET) -> list[Term]:
    return reduce_trace(SIGMA, t, Budget(budget))


def ccs_equiv(a: Term, b: Term, budget: int = DEFAULT_BUDGET) -> bool:
    return convertible(SIGMA, a, b, Budget(budget))


def _s_infer(ctx: Ctx, t: Term, b: Budget, calc: Calculus = SIGMA) -> Derivation:
    return infer(calc, ctx, t, b)


def ccs_infer(ctx: Ctx, t: Term, budget: int = DEFAULT_BUDGET) -> Derivation:
    return _s_infer(ctx, t, Budget(budget))


# ---------------------------------------------------------------------------
# The commuting diagram


class Judgement:
    """One judgement as the metatheory checks share it: `translation()` (with
    the source derivation it walked, checked with the context), the steps
    `target_checked()` spent checking its labels and context, the translated
    term's `target_type()` and `target_nf()`, the source `trace()` ending in
    the normal form, and that form's `nf_derivation()`: the translation's own
    derivation when the term takes no step, as inference is a function of
    `(ctx, term)`.  `translated_nf()` is that derivation translated in the
    translation's run, as `translate_many` gives it (`[(term, its
    definitions)]` and the run's label context then), and `coherent()`
    compares the translated term with that term by `dcc_equiv` under that
    context: reduction preservation reads it on a type that is not ground,
    and the diagram's `dcc-coherence` edge always.  Each is built on first
    use; a failure is not kept, so each check that reads it meets it."""

    def __init__(self, ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET, translate=defun):
        self.ctx, self.term, self.budget = ctx, term, budget
        res = self.translation = _once(lambda: translate(ctx, term, budget))
        self.target_checked = _once(lambda: dcc_check(res().labels, res().dcc_ctx, budget))
        self.target_type = _once(
            lambda: dcc_infer(res().labels, res().dcc_ctx, res().term, budget)
        )
        self.target_nf = _once(lambda: dcc_normalize(res().labels, res().term, budget))
        # no closure refers to the judgement, so dropping it frees them at once
        trace = self.trace = _once(lambda: cc_reduce_trace(term, budget))
        nf_d = self.nf_derivation = _once(lambda: res().derivation if len(trace()) == 1 else
                                          cc_infer(ctx, trace()[-1], budget, check_ctx=False))
        nf_t = self.translated_nf = _once(lambda: res().translate_many((nf_d(),)))
        self.coherent = _once(lambda: dcc_equiv(nf_t()[1], res().term, nf_t()[0][0][0], budget))


def _once(build):
    """A part that calls build() on first use and keeps what it returns; a
    call that raises keeps nothing, so the next call builds again."""
    kept = []

    def part():
        if not kept:
            kept.append(build())
        return kept[0]

    return part


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
    # suspension translations the check made in the judgement's shared run:
    # a suspension whose derivation that run walked before (in a type it read
    # before, or in what an earlier state shares) adds none, nor does a state
    # whose derivation a type read already made, nor a suspended type read only
    # for its definitions, lambda-free as its context is
    subst_nodes: int


def check_diagram(j: Judgement, raise_on_failure: bool = True) -> DiagramReport:
    """Check, for one judgement, that reduction and translation commute.

    Edges: the suspension calculus simulates every source step; translating
    the embedded term agrees with translating the source term; definitions
    shrink (never grow) along suspension steps; the translated term reduces,
    step-translated, to something equivalent to the translated normal form;
    and the whole thing happens under a well-formed label context.

    Every suspension state must be typable to be translated: raise mode lets
    the error of one that is not through, and report mode ends the report
    there with a failing `sigma-states-typed` edge that names the state.
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
    res = j.translation()
    cc_trace = j.trace()
    s_trace = ccs_reduce_trace(term, budget)

    steps_edge(
        "sigma-simulates-cc-step",
        cc_trace,
        lambda a, c: convertible_step(SIGMA, a, c, budget),
        "source ",
        "embedded redex and reduct are not sigma-equivalent",
    )
    edge(  # the ends of a trace of at most two states are the pair just decided
        "sigma-reaches-cc-normal-form",
        edges[-1].ok if len(cc_trace) <= 2 else ccs_equiv(cc_trace[0], cc_trace[-1], budget),
        "sigma-normal form of the embedding vs the source normal form",
    )

    subst_before = res.run.subst_nodes

    def report(labels: int) -> DiagramReport:
        return DiagramReport(
            ok=all(e.ok for e in edges),
            edges=tuple(edges),
            cc_steps=len(cc_trace) - 1,
            sigma_steps=len(s_trace) - 1,
            labels=labels,
            subst_nodes=res.run.subst_nodes - subst_before,
        )

    untyped: list[str] = []

    def state_derivations():
        """Every state's derivation, each under its own budget and through
        the run's σ table, so a state derives only the spine its step rebuilt;
        in report mode the first state sigma-inference rejects ends them, and
        the report with them."""
        for i, x in enumerate(s_trace):
            try:
                d = _s_infer(ctx, x, Budget(budget), res.run.sigma)
            except TypeCheckError as exc:
                if raise_on_failure:
                    raise
                untyped.append(f"state {i}: {exc}")
                return
            yield d

    # the judgement's own run translates the normal form, then every state
    translated, defs = res.translate_many(
        itertools.chain((j.nf_derivation(),), state_derivations())
    )
    if untyped:
        edge("sigma-states-typed", False, untyped[0])
        return report(len(defs))
    _, *states = translated
    state_ts = [t for t, _ in states]

    edge(
        "embedding-translates-identically",
        alpha_eq(res.term, state_ts[0]),
        "translation of the source derivation vs the embedded derivation",
    )
    steps_edge(
        "defs-monotone-along-sigma-step",
        [{e.label_id for e in d} for _, d in states],
        lambda redex, reduct: reduct <= redex,
        "suspension ",
        "reduct mints definitions the redex lacked",
    )

    # target_checked() covers the judgement's labels; by weakening, check only new ones
    try:
        b = Budget(budget)
        b.spend(j.target_checked())
        check_labels(defs, b, len(res.labels))
        edge("dcc-context-well-formed", True, f"{len(defs)} label(s)")
    except DefunccError as exc:
        edge("dcc-context-well-formed", False, str(exc))

    dcc = dcc_calculus(defs)
    steps_edge(
        "dcc-preserves-sigma-step",
        state_ts,
        lambda a, c: convertible_step(dcc, a, c, budget),
        "",
        "translated redex and reduct differ",
    )

    try:
        j.target_nf()
        terminated = True
    except StepBudgetExceeded:
        terminated = False
    edge("dcc-translation-normalizes", terminated, "")
    edge("dcc-coherence", j.coherent(), "translated term vs translated normal form")

    return report(len(defs))
