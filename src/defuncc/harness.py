"""Desk-scale metatheory: run the translation's correctness statements as
executable checks on concrete judgements, corpus files, and exhaustively
enumerated small terms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .cc import cc_check_context, cc_equiv, cc_infer, cc_normalize
from .dcc import dcc_check, dcc_equiv, dcc_infer, dcc_normalize
from .defun import Translation, _union, defun, label_subset, label_union
from .errors import AnnotationMismatch, DefunccError, StepBudgetExceeded, TypeCheckError
from .kernel import DEFAULT_BUDGET
from .refun import refun_context, refun_expr
from .sigma import check_diagram
from .surface import Elaborated, parse_dcc, parse_source, show_term
from .syntax import (
    NAT,
    Add,
    App,
    Ctx,
    Label,
    LabelCtx,
    LabelEntry,
    Lam,
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    alpha_eq,
    free_var_set,
    fresh_name,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self, prefix: str = "") -> str:
        status = "ok" if self.ok else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{prefix}{self.name}: {status}{detail}"


# ---------------------------------------------------------------------------
# Single-judgement checks


class _Judgement:
    """One judgement as its six checks share it: the source derivation,
    checked with the context, and the translation, each built on first use
    (a failure is not kept, so each check that reads the part meets it)."""

    def __init__(self, ctx: Ctx, term: Term, budget: int, infer, translate) -> None:
        self.ctx, self.term, self.budget = ctx, term, budget
        self.derivation = functools.cache(lambda: infer(ctx, term, budget))
        self.translation = functools.cache(lambda: translate(ctx, term, budget))


# One entry: a judgement's checks run back to back.  The `cc_infer` and `defun`
# in use are part of the key, so a replaced one (a tracer, a test's counter)
# never reads what another built.
_judgement = functools.lru_cache(maxsize=1)(_Judgement)


def _check(name: str):
    """Make a judgement check from a body returning (ok, detail) for the shared
    judgement; any DefunccError the body raises fails the check with its
    message."""

    def wrap(body):
        def check(ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET) -> CheckResult:
            try:
                return CheckResult(name, *body(_judgement(ctx, term, budget, cc_infer, defun)))
            except DefunccError as exc:
                return CheckResult(name, False, str(exc))

        check.__name__, check.__doc__ = body.__name__, body.__doc__
        return check

    return wrap


@_check("type-preservation")
def check_type_preservation(j: _Judgement):
    """Translate a judgement and re-check it in the target calculus."""
    res, budget = j.translation(), j.budget
    dcc_check(res.labels, res.dcc_ctx, budget)
    ty = dcc_infer(res.labels, res.dcc_ctx, res.term, budget, check_ctx=False)
    if not dcc_equiv(res.labels, ty, res.type_term, budget):
        return False, f"target type {show_term(ty)} differs from {show_term(res.type_term)}"
    if not label_subset(res.type_defs, res.defs):
        return False, "type definitions escape the term definitions"
    return True, f"{len(res.labels)} label(s)"


@_check("reduction-preservation")
def check_reduction_preservation(j: _Judgement):
    """Normalize on both sides of the translation and compare results."""
    deriv, budget = j.derivation(), j.budget
    nf = cc_normalize(j.term, budget)
    run = Translation()
    dcc_ctx, cp = run.translate_context(j.ctx)
    tt, tp = run.translate(deriv)
    dnf = cc_infer(j.ctx, nf, budget, check_ctx=False)
    tn, npids = run.translate(dnf)
    ren = run.finalize()
    defs = ren.label_ctx(_union(cp, tp, npids))
    f_term = ren.term(tt)
    f_nf = ren.term(tn)
    dcc_nf = dcc_normalize(defs, f_term, budget)
    ground = isinstance(cc_normalize(deriv.type, budget), NatType)
    if ground:
        if not alpha_eq(dcc_nf, nf):
            return False, f"ground values differ: {show_term(dcc_nf)} vs {show_term(nf)}"
        return True, f"ground value {show_term(nf)}"
    if not dcc_equiv(defs, f_term, f_nf, budget):
        return False, "translated term and translated normal form differ"
    return True, ""


@_check("round-trip")
def check_round_trip(j: _Judgement):
    """defun then refun must return an equivalent source term and context."""
    res, budget = j.translation(), j.budget
    back = refun_expr(res.labels, res.term)
    if not cc_equiv(back, j.term, budget):
        return False, f"returned {show_term(back)}"
    back_ctx = refun_context(res.labels, res.dcc_ctx)
    for (x, a), (_, a0) in zip(back_ctx, j.ctx):
        if not cc_equiv(a, a0, budget):
            return False, f"context entry {x!r} came back changed"
    return True, ""


@_check("type-safety")
def check_type_safety(j: _Judgement):
    """The translated term normalizes in budget; closed results are values."""
    res = j.translation()
    nf = dcc_normalize(res.labels, res.term, j.budget)
    closed = len(j.ctx) == 0 and not free_var_set(j.term)
    if closed:
        match nf:
            case Universe() | Pi() | NatType() | NatLit() | Label():
                pass
            case _:
                return False, f"closed normal form is stuck: {show_term(nf)}"
    return True, "closed value" if closed else "open term"


@_check("weakening")
def check_weakening(j: _Judgement):
    """Appending unused assumptions or labels must not change types."""
    deriv, budget = j.derivation(), j.budget
    z = fresh_name("zw", set(j.ctx.names()) | free_var_set(j.term))
    d2 = cc_infer(j.ctx.extend(z, Universe(0)), j.term, budget, check_ctx=False)
    if not cc_equiv(d2.type, deriv.type, budget):
        return False, "source type changed under a longer context"
    res = j.translation()
    extra_id = max([e.label_id for e in res.labels], default=-1) + 1
    extra = LabelEntry(extra_id, (), "x", NAT, Var("x"), NAT)
    defs2 = label_union(res.labels, LabelCtx((extra,)))
    if not label_subset(res.labels, defs2):
        return False, "label union is not monotone"
    ty1 = dcc_infer(res.labels, res.dcc_ctx, res.term, budget, check_ctx=False)
    ty2 = dcc_infer(defs2, res.dcc_ctx, res.term, budget, check_ctx=False)
    if not dcc_equiv(defs2, ty1, ty2, budget):
        return False, "target type changed under a longer label context"
    return True, ""


@_check("commuting-diagram")
def check_diagram_result(j: _Judgement):
    """Reduction and translation commute (see sigma.check_diagram)."""
    report = check_diagram(j.ctx, j.term, j.budget, raise_on_failure=True)
    return True, (
        f"{report.cc_steps} source / {report.sigma_steps} suspension step(s), "
        f"{report.labels} label(s)"
    )


ALL_CHECKS = (
    check_type_preservation,
    check_reduction_preservation,
    check_round_trip,
    check_type_safety,
    check_weakening,
    check_diagram_result,
)


# ---------------------------------------------------------------------------
# Equivalence cross-check: bounded joinability search


def joinable(step, a: Term, b: Term, max_steps: int = 200) -> bool:
    """Breadth-first joinability under a one-step reduction function."""

    def frontier(t: Term) -> set[Term]:
        seen = {t}
        queue = [t]
        budget = max_steps
        while queue and budget > 0:
            cur = queue.pop(0)
            nxt = step(cur)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                budget -= 1
        return seen

    fa = frontier(a)
    fb = frontier(b)
    return any(alpha_eq(x, y) for x in fa for y in fb)


# ---------------------------------------------------------------------------
# Bounded exhaustive enumeration


@dataclass(frozen=True)
class EnumConfig:
    size_budget: int = 8
    universe_levels: tuple[int, ...] = (0, 1)
    nat_literals: tuple[int, ...] = (1,)
    infer_budget: int = 20_000


def seed_contexts() -> tuple[Ctx, ...]:
    a = Var("A")
    return (
        Ctx(),
        Ctx((("A", Universe(0)),)),
        Ctx((("A", Universe(0)), ("a", a))),
        Ctx((("A", Universe(0)), ("f", Pi("_", a, a)), ("a", a))),
        Ctx((("n", NAT),)),
    )


def _raw_terms(
    names: tuple[str, ...], size: int, depth: int, cfg: EnumConfig, memo: dict
) -> list[Term]:
    key = (names, size, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out: list[Term] = []
    if size == 1:
        out.extend(Var(n) for n in names)
        out.extend(Universe(lvl) for lvl in cfg.universe_levels)
        out.append(NAT)
        out.extend(NatLit(v) for v in cfg.nat_literals)
    elif size >= 3:
        for left in range(1, size - 1):
            right = size - 1 - left
            ls = _raw_terms(names, left, depth, cfg, memo)
            rs = _raw_terms(names, right, depth, cfg, memo)
            for f, a in itertools.product(ls, rs):
                out.append(App(f, a))
                out.append(Add(f, a))
            binder = f"b{depth}"
            bodies = _raw_terms(names + (binder,), right, depth + 1, cfg, memo)
            for dom, body in itertools.product(ls, bodies):
                out.append(Pi(binder, dom, body))
                out.append(Lam(binder, dom, body))
    memo[key] = out
    return out


def enumerate_small_terms(cfg: EnumConfig = EnumConfig()) -> list[tuple[Ctx, Term]]:
    """All well-typed judgements over the seed contexts up to the size budget.

    Every alpha-distinct raw term within the budget is produced exactly once
    (binder names are fixed by depth) and kept iff it typechecks.
    """
    out: list[tuple[Ctx, Term]] = []
    memo: dict = {}
    for ctx in seed_contexts():
        for size in range(1, cfg.size_budget + 1):
            for t in _raw_terms(ctx.names(), size, 0, cfg, memo):
                try:
                    cc_infer(ctx, t, cfg.infer_budget, check_ctx=False)
                except (TypeCheckError, StepBudgetExceeded):
                    continue
                out.append((ctx, t))
    return out


# ---------------------------------------------------------------------------
# File verification


def load_file(path: str | Path) -> Elaborated:
    path = Path(path)
    text = path.read_text()
    parsed = parse_dcc(text) if path.suffix == ".dcc" else parse_source(text)
    return parsed.elaborate()


def source_judgements(elab: Elaborated) -> list[tuple[str, Ctx, Term]]:
    """The judgements a source file gives rise to: each definition body and
    the main term, all under the axiom context."""
    out: list[tuple[str, Ctx, Term]] = []
    for name, _, body in elab.defs:
        out.append((f"def {name}", elab.ctx, body))
    if elab.main is not None:
        out.append(("main", elab.ctx, elab.main))
    return out


def check_annotations(
    elab: Elaborated, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[str, DefunccError | None]]:
    """Each definition body checked against its annotation under the axiom
    context, lazily and in file order: (name, None) or (name, error)."""
    for name, annot, body in elab.defs:
        error = None
        try:
            d = cc_infer(elab.ctx, body, budget, check_ctx=False)
            cc_infer(elab.ctx, annot, budget, check_ctx=False)
            if not cc_equiv(d.type, annot, budget):
                error = AnnotationMismatch(name, show_term(d.type), show_term(annot))
        except DefunccError as exc:
            error = exc
        yield name, error


def verify_source(elab: Elaborated, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    try:
        cc_check_context(elab.ctx, budget)
    except DefunccError as exc:
        return False, [f"context: FAIL ({exc})"]
    ok, lines = True, ["context: ok"]
    for name, error in check_annotations(elab, budget):
        if isinstance(error, AnnotationMismatch):
            error = f"body has type {error.body_type}"
        ok = ok and error is None
        lines.append(f"def {name}: annotation: " + ("ok" if error is None else f"FAIL ({error})"))
    for name, ctx, term in source_judgements(elab):
        for check in ALL_CHECKS:
            r = check(ctx, term, budget)
            ok = ok and r.ok
            lines.append(r.line(prefix=f"{name}: "))
    return ok, lines


def verify_dcc(elab: Elaborated, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    try:
        dcc_check(elab.labels, elab.ctx, budget)
    except DefunccError as exc:
        return False, [f"label context: FAIL ({exc})"]
    if elab.main is None:
        return True, ["label context: ok"]
    try:
        ty = dcc_infer(elab.labels, elab.ctx, elab.main, budget, check_ctx=False)
    except DefunccError as exc:
        return False, ["label context: ok", f"main: FAIL ({exc})"]
    return True, ["label context: ok", f"main: {show_term(ty)}"]


def verify_file(path: str | Path, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    verify = verify_dcc if Path(path).suffix == ".dcc" else verify_source
    return verify(load_file(path), budget)


def verify_path(path: str | Path, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    """Verify one file, or every .cc/.dcc file directly inside a directory."""
    path = Path(path)
    files = [path]
    if path.is_dir():
        files = [f for f in sorted(path.iterdir()) if f.suffix in (".cc", ".dcc") and f.is_file()]
    ok, lines = True, []
    for f in files:
        sub_ok, sub_lines = verify_file(f, budget)
        ok = ok and sub_ok
        lines.extend(f"{f.name}: {line}" for line in sub_lines)
    return ok, lines
