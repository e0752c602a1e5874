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
# dcc_normalize stays a module attribute: perfbench/tracing.py replaces it here
from .dcc import dcc_check, dcc_equiv, dcc_infer, dcc_normalize  # noqa: F401
# Translation stays a module attribute: perfbench/tracing.py replaces it here
from .defun import Translation, defun, label_subset, label_union  # noqa: F401
from .errors import (
    INPUT_ERRORS,
    AnnotationMismatch,
    DefunccError,
    NestingTooDeep,
    StepBudgetExceeded,
    TypeCheckError,
    input_error_message,
)
from .kernel import DEFAULT_BUDGET
from .refun import refun_context, refun_expr
from .sigma import Judgement, check_diagram
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
    frozen_slotted,
)


@frozen_slotted
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


# One entry: a judgement's checks run back to back.  The `defun` in use is part
# of the key, so a replaced one (a tracer, a test's counter) never reads what
# another built.
_judgement = functools.lru_cache(maxsize=1)(Judgement)


def _check(name: str):
    """Make a judgement check from a body returning (ok, detail) for the shared
    judgement; any DefunccError the body raises fails the check with its
    message, and a judgement nested too deeply raises NestingTooDeep."""

    def wrap(body):
        def check(ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET) -> CheckResult:
            try:
                return CheckResult(name, *body(_judgement(ctx, term, budget, defun)))
            except DefunccError as exc:
                return CheckResult(name, False, str(exc))
            except RecursionError:
                raise NestingTooDeep() from None

        check.__name__, check.__doc__ = body.__name__, body.__doc__
        return check

    return wrap


@_check("type-preservation")
def check_type_preservation(j: Judgement):
    """Translate a judgement and re-check it in the target calculus."""
    res, budget = j.translation(), j.budget
    j.target_checked()
    ty = j.target_type()
    if not dcc_equiv(res.labels, ty, res.type_term, budget):
        return False, f"target type {show_term(ty)} differs from {show_term(res.type_term)}"
    if not label_subset(res.type_defs, res.defs):
        return False, "type definitions escape the term definitions"
    return True, f"{len(res.labels)} label(s)"


@_check("reduction-preservation")
def check_reduction_preservation(j: Judgement):
    """Normalize on both sides of the translation and compare results: the
    normal form is translated in the term's own run."""
    res, budget = j.translation(), j.budget
    nf = j.trace()[-1]
    ((f_nf, _),), defs = res.translate_many((j.nf_derivation(),))
    dcc_nf = j.target_nf()
    ground = isinstance(cc_normalize(res.derivation.type, budget), NatType)
    if ground:
        if not alpha_eq(dcc_nf, nf):
            return False, f"ground values differ: {show_term(dcc_nf)} vs {show_term(nf)}"
        return True, f"ground value {show_term(nf)}"
    if not dcc_equiv(defs, res.term, f_nf, budget):
        return False, "translated term and translated normal form differ"
    return True, ""


@_check("round-trip")
def check_round_trip(j: Judgement):
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
def check_type_safety(j: Judgement):
    """The translated term normalizes in budget; closed results are values."""
    nf = j.target_nf()
    closed = len(j.ctx) == 0 and not free_var_set(j.term)
    if closed:
        match nf:
            case Universe() | Pi() | NatType() | NatLit() | Label():
                pass
            case _:
                return False, f"closed normal form is stuck: {show_term(nf)}"
    return True, "closed value" if closed else "open term"


@_check("weakening")
def check_weakening(j: Judgement):
    """Appending unused assumptions or labels must not change types."""
    res, budget = j.translation(), j.budget
    z = fresh_name("zw", set(j.ctx.names()) | free_var_set(j.term))
    d2 = cc_infer(j.ctx.extend(z, Universe(0)), j.term, budget, check_ctx=False)
    if not cc_equiv(d2.type, res.derivation.type, budget):
        return False, "source type changed under a longer context"
    extra_id = max([e.label_id for e in res.labels], default=-1) + 1
    extra = LabelEntry(extra_id, (), "x", NAT, Var("x"), NAT)
    defs2 = label_union(res.labels, LabelCtx((extra,)))
    if not label_subset(res.labels, defs2):
        return False, "label union is not monotone"
    ty1 = j.target_type()
    ty2 = dcc_infer(defs2, res.dcc_ctx, res.term, budget)
    if not dcc_equiv(defs2, ty1, ty2, budget):
        return False, "target type changed under a longer label context"
    return True, ""


@_check("commuting-diagram")
def check_diagram_result(j: Judgement):
    """Reduction and translation commute (see sigma.check_diagram)."""
    report = check_diagram(j, raise_on_failure=True)
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
# Bounded exhaustive enumeration


@dataclass(frozen=True)
class EnumConfig:
    size_budget: int = 8


# the atoms of enumerated terms besides variables and Nat, and the budget that
# decides whether a candidate typechecks
ENUM_UNIVERSE_LEVELS = (0, 1)
ENUM_NAT_LITERALS = (1,)
ENUM_INFER_BUDGET = 20_000


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
    names: tuple[str, ...], size: int, depth: int, memo: dict
) -> list[Term]:
    key = (names, size, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    out: list[Term] = []
    if size == 1:
        out.extend(Var(n) for n in names)
        out.extend(Universe(lvl) for lvl in ENUM_UNIVERSE_LEVELS)
        out.append(NAT)
        out.extend(NatLit(v) for v in ENUM_NAT_LITERALS)
    elif size >= 3:
        for left in range(1, size - 1):
            right = size - 1 - left
            ls = _raw_terms(names, left, depth, memo)
            rs = _raw_terms(names, right, depth, memo)
            for f, a in itertools.product(ls, rs):
                out.append(App(f, a))
                out.append(Add(f, a))
            binder = f"b{depth}"
            bodies = _raw_terms(names + (binder,), right, depth + 1, memo)
            for dom, body in itertools.product(ls, bodies):
                out.append(Pi(binder, dom, body))
                out.append(Lam(binder, dom, body))
    memo[key] = out
    return out


def _a_universe(ty: Term) -> bool:
    """Whether ty normalizes to a universe within the enumeration budget."""
    try:
        return isinstance(cc_normalize(ty, ENUM_INFER_BUDGET), Universe)
    except StepBudgetExceeded:
        return False


def _a_premise_fails(t: Term, infers: set[int], types: set[int]) -> bool:
    """Whether a premise `kernel.infer` derives for t under t's own context
    failed alone: a part of an application or addition that does not infer
    (is not in `infers`), or a product's or lambda's domain that is no type
    (is not in `types`); both sets hold ids of smaller candidates."""
    tt = type(t)
    if tt is App:
        return id(t.fn) not in infers or id(t.arg) not in infers
    if tt is Add:
        return id(t.lhs) not in infers or id(t.rhs) not in infers
    if tt is Pi or tt is Lam:
        return id(t.domain) not in types
    return False


def enumerate_small_terms(cfg: EnumConfig = EnumConfig()) -> list[tuple[Ctx, Term]]:
    """All well-typed judgements over the seed contexts up to the size budget.

    Every alpha-distinct raw term within the budget is produced exactly once
    (binder names are fixed by depth) and kept iff it typechecks.

    A candidate is not inferred when a premise under its own context failed
    alone: a part of an application or addition that does not infer, or a
    product's or lambda's domain that is no type.  (A codomain or body is
    read under a longer context, so it is not consulted.)  The verdicts are
    kept by identity for the candidates of at most `size_budget - 2`, the
    largest a premise can be; `_raw_terms`' memo keeps them alive.  This is
    exact: `kernel.infer` derives the first premise from an unspent budget
    and the later ones on the same budget, so a premise that fails alone, by
    a type error or by running out of steps, fails inside the candidate too.
    Enumeration binders `b<depth>` are no seed context's names, so
    `freshen_binder` rewrites no candidate, and the kept judgements come out
    in the order the candidates are produced.
    """
    out: list[tuple[Ctx, Term]] = []
    memo: dict = {}
    for ctx in seed_contexts():
        infers: set[int] = set()  # premise-sized candidates that infer
        types: set[int] = set()  # those of them whose type is a universe
        for size in range(1, cfg.size_budget + 1):
            premise_sized = size <= cfg.size_budget - 2
            for t in _raw_terms(ctx.names(), size, 0, memo):
                if _a_premise_fails(t, infers, types):
                    continue
                try:
                    d = cc_infer(ctx, t, ENUM_INFER_BUDGET, check_ctx=False)
                except (TypeCheckError, StepBudgetExceeded):
                    continue
                out.append((ctx, t))
                if premise_sized:
                    infers.add(id(t))
                    if _a_universe(d.type):
                        types.add(id(t))
    return out


# ---------------------------------------------------------------------------
# File verification


def load_file(path: str | Path) -> Elaborated:
    """Parse and elaborate one file; input nested too deeply raises NestingTooDeep."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        parsed = parse_dcc(text) if path.suffix == ".dcc" else parse_source(text)
        return parsed.elaborate()
    except RecursionError:
        raise NestingTooDeep() from None


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
                error = AnnotationMismatch(name, d.type, annot)
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
        ty = dcc_infer(elab.labels, elab.ctx, elab.main, budget)
    except DefunccError as exc:
        return False, ["label context: ok", f"main: FAIL ({exc})"]
    return True, ["label context: ok", f"main: {show_term(ty)}"]


def verify_file(path: str | Path, budget: int = DEFAULT_BUDGET) -> tuple[bool, list[str]]:
    """Verify one file; input nested too deeply raises NestingTooDeep."""
    verify = verify_dcc if Path(path).suffix == ".dcc" else verify_source
    try:
        return verify(load_file(path), budget)
    except RecursionError:
        raise NestingTooDeep() from None


def verify_path(
    path: str | Path, budget: int = DEFAULT_BUDGET
) -> tuple[bool, list[str], int]:
    """Verify one file, or every .cc/.dcc file directly inside a directory:
    (every check passed, the report lines, how many files could not be read,
    parsed or followed for nesting too deeply).

    A single such file raises, and so does a directory with none (verifying
    nothing is no pass).  Inside a directory a file that fails so gives one
    `name: error: ...` or `name: parse error: ...` line in its sorted place,
    and the other files are still verified."""
    path = Path(path)
    files = [path]
    if path.is_dir():
        files = [f for f in sorted(path.iterdir()) if f.suffix in (".cc", ".dcc") and f.is_file()]
        if not files:
            raise FileNotFoundError(f"no .cc or .dcc file in {path}")
    ok, lines, unread = True, [], 0
    for f in files:
        try:
            sub_ok, sub_lines = verify_file(f, budget)
        except (*INPUT_ERRORS, NestingTooDeep) as exc:
            if f is path:
                raise
            sub_ok, sub_lines, unread = False, [input_error_message(exc)], unread + 1
        ok = ok and sub_ok
        lines.extend(f"{f.name}: {line}" for line in sub_lines)
    return ok, lines, unread
