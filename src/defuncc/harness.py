"""Desk-scale metatheory: run the translation's correctness statements as
executable checks on concrete judgements, corpus files, and exhaustively
enumerated small terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from .cc import cc_check_context, cc_equiv, cc_infer, cc_normalize
from .dcc import dcc_check, dcc_equiv, dcc_infer, dcc_normalize
from .defun import Translation, _union, defun, label_subset, label_union
from .errors import DefunccError, StepBudgetExceeded, TypeCheckError
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


def _check(name: str):
    """Make a judgement check from a body returning (ok, detail); any
    DefunccError the body raises fails the check with its message."""

    def wrap(body):
        def check(ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET) -> CheckResult:
            try:
                return CheckResult(name, *body(ctx, term, budget))
            except DefunccError as exc:
                return CheckResult(name, False, str(exc))

        check.__name__, check.__doc__ = body.__name__, body.__doc__
        return check

    return wrap


@_check("type-preservation")
def check_type_preservation(ctx: Ctx, term: Term, budget: int):
    """Translate a judgement and re-check it in the target calculus."""
    res = defun(ctx, term, budget)
    defs_all = label_union(res.ctx_defs, res.defs)
    dcc_check(defs_all, res.dcc_ctx, budget)
    ty = dcc_infer(defs_all, res.dcc_ctx, res.term, budget, check_ctx=False)
    if not dcc_equiv(defs_all, ty, res.type_term, budget):
        return False, f"target type {show_term(ty)} differs from {show_term(res.type_term)}"
    if not label_subset(res.type_defs, res.defs):
        return False, "type definitions escape the term definitions"
    return True, f"{len(defs_all)} label(s)"


@_check("reduction-preservation")
def check_reduction_preservation(ctx: Ctx, term: Term, budget: int):
    """Normalize on both sides of the translation and compare results."""
    deriv = cc_infer(ctx, term, budget)
    nf = cc_normalize(term, budget)
    run = Translation()
    dcc_ctx, cp = run.translate_context(ctx)
    tt, tp = run.translate(deriv)
    dnf = cc_infer(ctx, nf, budget, check_ctx=False)
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
def check_round_trip(ctx: Ctx, term: Term, budget: int):
    """defun then refun must return an equivalent source term and context."""
    res = defun(ctx, term, budget)
    defs_all = label_union(res.ctx_defs, res.defs)
    back = refun_expr(defs_all, res.term)
    if not cc_equiv(back, term, budget):
        return False, f"returned {show_term(back)}"
    back_ctx = refun_context(defs_all, res.dcc_ctx)
    for (x, a), (_, a0) in zip(back_ctx, ctx):
        if not cc_equiv(a, a0, budget):
            return False, f"context entry {x!r} came back changed"
    return True, ""


@_check("type-safety")
def check_type_safety(ctx: Ctx, term: Term, budget: int):
    """The translated term normalizes in budget; closed results are values."""
    res = defun(ctx, term, budget)
    defs_all = label_union(res.ctx_defs, res.defs)
    nf = dcc_normalize(defs_all, res.term, budget)
    closed = len(ctx) == 0 and not free_var_set(term)
    if closed:
        match nf:
            case Universe() | Pi() | NatType() | NatLit() | Label():
                pass
            case _:
                return False, f"closed normal form is stuck: {show_term(nf)}"
    return True, "closed value" if closed else "open term"


@_check("weakening")
def check_weakening(ctx: Ctx, term: Term, budget: int):
    """Appending unused assumptions or labels must not change types."""
    deriv = cc_infer(ctx, term, budget)
    z = fresh_name("zw", set(ctx.names()) | free_var_set(term))
    d2 = cc_infer(ctx.extend(z, Universe(0)), term, budget, check_ctx=False)
    if not cc_equiv(d2.type, deriv.type, budget):
        return False, "source type changed under a longer context"
    res = defun(ctx, term, budget)
    defs_all = label_union(res.ctx_defs, res.defs)
    extra_id = max([e.label_id for e in defs_all], default=-1) + 1
    extra = LabelEntry(extra_id, (), "x", NAT, Var("x"), NAT)
    defs2 = label_union(defs_all, LabelCtx((extra,)))
    if not label_subset(defs_all, defs2):
        return False, "label union is not monotone"
    ty1 = dcc_infer(defs_all, res.dcc_ctx, res.term, budget, check_ctx=False)
    ty2 = dcc_infer(defs2, res.dcc_ctx, res.term, budget, check_ctx=False)
    if not dcc_equiv(defs2, ty1, ty2, budget):
        return False, "target type changed under a longer label context"
    return True, ""


@_check("commuting-diagram")
def check_diagram_result(ctx: Ctx, term: Term, budget: int):
    """Reduction and translation commute (see sigma.check_diagram)."""
    report = check_diagram(ctx, term, budget, raise_on_failure=True)
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


def verify_source(elab: Elaborated, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    lines: list[str] = []
    ok = True
    try:
        cc_check_context(elab.ctx, budget)
        lines.append("context: ok")
    except DefunccError as exc:
        lines.append(f"context: FAIL ({exc})")
        return False, lines
    for name, annot, body in elab.defs:
        try:
            d = cc_infer(elab.ctx, body, budget, check_ctx=False)
            cc_infer(elab.ctx, annot, budget, check_ctx=False)
            if cc_equiv(d.type, annot, budget):
                lines.append(f"def {name}: annotation: ok")
            else:
                ok = False
                lines.append(
                    f"def {name}: annotation: FAIL (body has type {show_term(d.type)})"
                )
        except DefunccError as exc:
            ok = False
            lines.append(f"def {name}: annotation: FAIL ({exc})")
    for name, ctx, term in source_judgements(elab):
        for check in ALL_CHECKS:
            r = check(ctx, term, budget)
            ok = ok and r.ok
            lines.append(r.line(prefix=f"{name}: "))
    return ok, lines


def verify_dcc(elab: Elaborated, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    lines: list[str] = []
    try:
        dcc_check(elab.labels, elab.ctx, budget)
        lines.append("label context: ok")
    except DefunccError as exc:
        lines.append(f"label context: FAIL ({exc})")
        return False, lines
    ok = True
    if elab.main is not None:
        try:
            ty = dcc_infer(elab.labels, elab.ctx, elab.main, budget, check_ctx=False)
            lines.append(f"main: {show_term(ty)}")
        except DefunccError as exc:
            ok = False
            lines.append(f"main: FAIL ({exc})")
    return ok, lines


def verify_file(path: str | Path, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    path = Path(path)
    elab = load_file(path)
    if path.suffix == ".dcc":
        return verify_dcc(elab, budget)
    return verify_source(elab, budget)


def verify_path(path: str | Path, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    """Verify one file, or every .cc/.dcc file directly inside a directory."""
    path = Path(path)
    if path.is_dir():
        ok = True
        lines: list[str] = []
        for child in sorted(path.iterdir()):
            if child.suffix in (".cc", ".dcc") and child.is_file():
                sub_ok, sub_lines = verify_file(child, budget)
                ok = ok and sub_ok
                lines.extend(f"{child.name}: {line}" for line in sub_lines)
        return ok, lines
    ok, lines = verify_file(path, budget)
    return ok, [f"{path.name}: {line}" for line in lines]
