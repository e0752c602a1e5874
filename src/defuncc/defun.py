"""Forward translation: replace every lambda with a label applied to its
closure, collecting one entry per distinct definition.

Translation is directed by typing derivations.  Within one run the minter
dedups structurally identical definitions (alpha-invariant canonical keys);
final dense ids are ranked by first pre-order occurrence, so the outermost
lambda of a program becomes l0 and substitution-created lambdas sort last.
Entry order in emitted label contexts is completion order (innermost first),
which keeps every reference pointing at an earlier entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cc import cc_infer, fv_telescope
from .errors import LabelClash
from .kernel import DEFAULT_BUDGET, Derivation
from .surface import label_name
from .syntax import (
    Add,
    App,
    Ctx,
    ESubst,
    Label,
    LabelCtx,
    LabelEntry,
    Lam,
    Pi,
    Term,
    Var,
    entry_alpha_eq,
    entry_canon,
    map_children,
    subst_many,
)


@dataclass(frozen=True)
class TranslationResult:
    """Everything one translation run produces for a judgement ctx |- term : type."""

    term: Term  # translated term
    type_term: Term  # translated type
    defs: LabelCtx  # label definitions extracted from the term's derivation
    type_defs: LabelCtx  # label definitions extracted from the type's derivation
    ctx_defs: LabelCtx  # label definitions extracted from the context
    dcc_ctx: Ctx  # pointwise-translated context
    labels: LabelCtx  # the judgement's label context: ctx_defs, then the rest of defs


class Translation:
    """One minting scope.  All artifacts meant to share label ids must be
    produced by the same Translation and finalized together.

    `infer` builds derivations for re-inferred components (closure telescope
    types, return types, context entries); the explicit-substitution oracle
    passes its own judgement builder here.
    """

    def __init__(self, infer=None) -> None:
        self._by_key: dict[object, int] = {}
        # provisional id = list index; Renumbering gives each entry its final id
        self._entries: list[LabelEntry] = []
        self._first_stamp: dict[int, int] = {}
        self._stamp = 0
        self.subst_nodes = 0  # translated explicit-substitution nodes
        self._infer = infer or (lambda ctx, t: cc_infer(ctx, t, check_ctx=False))

    # -- minting

    def _mint(self, entry: LabelEntry, stamp: int) -> int:
        key = entry_canon(entry)
        pid = self._by_key.get(key)
        if pid is None:
            pid = len(self._entries)
            self._by_key[key] = pid
            self._entries.append(entry)
            self._first_stamp[pid] = stamp
        return pid

    # -- translation proper

    def translate(self, deriv: Derivation) -> tuple[Term, tuple[int, ...]]:
        """Translated term plus the extracted definitions (provisional ids)."""
        rule = deriv.rule
        ch = deriv.children
        if rule == "ty-Var":
            _, d = self.translate(ch[0])
            return deriv.subject, d
        if rule in ("ty-Universe", "ty-Nat", "ty-NatLit"):
            return deriv.subject, ()
        if rule == "ty-Add":
            tl, dl = self.translate(ch[0])
            tr, dr = self.translate(ch[1])
            return Add(tl, tr), _union(dl, dr)
        if rule == "ty-Pi":
            ta, da = self.translate(ch[0])
            tb, db = self.translate(ch[1])
            assert isinstance(deriv.subject, Pi)
            return Pi(deriv.subject.binder, ta, tb), _union(da, db)
        if rule == "ty-Lambda":
            return self._translate_lambda(deriv)
        if rule == "ty-Apply":
            tm, dm = self.translate(ch[0])
            tn, dn = self.translate(ch[1])
            _, dsub = self.translate(ch[2])
            return App(tm, tn), _union(dm, dn, dsub)
        if rule == "ty-Equiv":
            tm, dm = self.translate(ch[0])
            _, dty = self.translate(ch[1])
            return tm, _union(dm, dty)
        if rule == "s-ty-Subst":
            tm, dm = self.translate(ch[0])
            assert isinstance(deriv.subject, ESubst)
            mapping: dict[str, Term] = {}
            parts = [dm]
            for sb, child in zip(deriv.subject.bindings, ch[1:]):
                tv, dv = self.translate(child)
                mapping[sb.name] = tv
                parts.append(dv)
            result = subst_many(tm, mapping)
            self.subst_nodes += 1
            return result, _union(*parts)
        raise ValueError(f"cannot translate derivation rule {rule!r}")

    def _translate_lambda(self, deriv: Derivation) -> tuple[Term, tuple[int, ...]]:
        stamp = self._stamp
        self._stamp += 1
        da_deriv, dm_deriv = deriv.children
        ta, da = self.translate(da_deriv)
        tm, dm = self.translate(dm_deriv)
        subject = deriv.subject
        assert isinstance(subject, Lam)
        tele = fv_telescope(deriv.ctx, subject, deriv.type)
        tele_t = tuple(
            (x, self.translate(self._infer(deriv.ctx, a))[0]) for x, a in tele
        )
        body_ctx = dm_deriv.ctx
        ret = dm_deriv.type
        tb, _ = self.translate(self._infer(body_ctx, ret))
        pid = self._mint(
            LabelEntry(-1, tele_t, subject.binder, ta, tm, tb), stamp
        )
        term = Label(pid, tuple(Var(x) for x, _ in tele))
        return term, _union(da, dm, (pid,))

    def translate_context(self, ctx: Ctx) -> tuple[Ctx, tuple[int, ...]]:
        """Pointwise translation of a source context plus its definitions."""
        out = Ctx()
        defs: tuple[int, ...] = ()
        prefix = Ctx()
        for x, a in ctx:
            d = self._infer(prefix, a)
            ta, da = self.translate(d)
            out = out.extend(x, ta)
            defs = _union(defs, da)
            prefix = prefix.extend(x, a)
        return out, defs

    # -- finalization

    def finalize(self) -> "Renumbering":
        order = sorted(range(len(self._entries)), key=lambda pid: self._first_stamp[pid])
        final = {pid: rank for rank, pid in enumerate(order)}
        return Renumbering(final, self._entries)


class Renumbering:
    """Applies the provisional-to-final id mapping to run artifacts."""

    def __init__(self, mapping: dict[int, int], entries: list[LabelEntry]):
        self._map = mapping
        self._entries = entries
        self._done: dict[int, LabelEntry] = {}  # renumbered entries, shared by every label_ctx

    def term(self, t: Term) -> Term:
        if isinstance(t, Label):
            return Label(self._map[t.label_id], tuple(self.term(a) for a in t.args))
        return map_children(self.term, t)

    def entry(self, pid: int) -> LabelEntry:
        if pid not in self._done:
            e = self._entries[pid]
            self._done[pid] = LabelEntry(
                self._map[pid],
                tuple((x, self.term(a)) for x, a in e.telescope),
                e.arg_name,
                self.term(e.arg_type),
                self.term(e.body),
                self.term(e.ret_type),
            )
        return self._done[pid]

    def label_ctx(self, pids: tuple[int, ...]) -> LabelCtx:
        return LabelCtx(tuple(self.entry(pid) for pid in pids))

    def ctx(self, c: Ctx) -> Ctx:
        return Ctx(tuple((x, self.term(a)) for x, a in c))


def _union(*parts: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    seen: set[int] = set()
    for part in parts:
        for pid in part:
            if pid not in seen:
                seen.add(pid)
                out.append(pid)
    return tuple(out)


# ---------------------------------------------------------------------------
# Public entry points


def defun(ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET) -> TranslationResult:
    """Translate a judgement: context first, then the term, then its type."""
    deriv = cc_infer(ctx, term, budget)
    run = Translation()
    dcc_ctx, ctx_pids = run.translate_context(ctx)
    term_t, term_pids = run.translate(deriv)
    type_deriv = cc_infer(ctx, deriv.type, budget, check_ctx=False)
    type_t, type_pids = run.translate(type_deriv)
    ren = run.finalize()
    return TranslationResult(
        term=ren.term(term_t),
        type_term=ren.term(type_t),
        defs=ren.label_ctx(term_pids),
        type_defs=ren.label_ctx(type_pids),
        ctx_defs=ren.label_ctx(ctx_pids),
        dcc_ctx=ren.ctx(dcc_ctx),
        labels=ren.label_ctx(_union(ctx_pids, term_pids)),
    )


def defun_expr(ctx: Ctx, term: Term) -> Term:
    return defun(ctx, term).term


def defun_defs(ctx: Ctx, term: Term) -> LabelCtx:
    return defun(ctx, term).defs


def defun_context(ctx: Ctx) -> tuple[Ctx, LabelCtx]:
    run = Translation()
    dcc_ctx, pids = run.translate_context(ctx)
    ren = run.finalize()
    return ren.ctx(dcc_ctx), ren.label_ctx(pids)


# ---------------------------------------------------------------------------
# Label context algebra


def label_union(d1: LabelCtx, d2: LabelCtx) -> LabelCtx:
    """d1 followed by the entries only in d2; clashing ids must agree."""
    by_id = {e.label_id: e for e in d1}
    out = list(d1.entries)
    for e in d2:
        prior = by_id.get(e.label_id)
        if prior is None:
            by_id[e.label_id] = e
            out.append(e)
        elif not entry_alpha_eq(prior, e):
            raise LabelClash(label_name(e.label_id))
    return LabelCtx(tuple(out))


def label_subset(d1: LabelCtx, d2: LabelCtx) -> bool:
    """Every entry of d1 appears in d2 with an alpha-equal definition."""
    for e in d1:
        other = d2.lookup(e.label_id)
        if other is None or not entry_alpha_eq(e, other):
            return False
    return True
