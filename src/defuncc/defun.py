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

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from operator import is_not

from .cc import CC, CC_TERMS, SIGMA, cc_infer, fv_telescope
from .errors import LabelClash
from .kernel import DEFAULT_BUDGET, Budget, Derivation, infer
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
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    _ordered_union,
    children,
    entry_alpha_eq,
    entry_canon,
    rebuild,
    subst_many,
    uses_only,
)

_LAM_FREE = SIGMA.allowed - {Lam}  # a type built from these mints no label
_PLAIN = frozenset({Var, Universe, NatType, NatLit, Pi, App})  # ... and holds no redex either
# a context's facts (see `Translation`): every type is lambda-free, its names
# if every type is plain, every type is a source term
_Facts = tuple[bool, frozenset[str] | None, bool]
_EMPTY_FACTS: _Facts = (True, frozenset(), True)


@dataclass(frozen=True)
class TranslationResult:
    """Everything one translation run produces for a judgement ctx |- term : type."""

    derivation: Derivation  # the source derivation the translation walked
    term: Term  # translated term
    type_term: Term  # translated type
    defs: LabelCtx  # label definitions extracted from the term's derivation
    type_defs: LabelCtx  # label definitions extracted from the type's derivation
    ctx_defs: LabelCtx  # label definitions extracted from the context
    dcc_ctx: Ctx  # pointwise-translated context
    labels: LabelCtx  # the judgement's label context: ctx_defs, then the rest of defs
    # the run, still open: reduction preservation and the diagram check go on in it
    run: "Translation" = field(compare=False, repr=False)
    _pids: tuple[int, ...] = field(compare=False, repr=False)  # `labels`, provisional

    def translate_many(
        self, derivs: Iterable[Derivation]
    ) -> tuple[list[tuple[Term, LabelCtx]], LabelCtx]:
        """Translate further derivations in this result's run, in order, and
        finalize once: each translated term with its own definitions, and
        `labels` followed by the definitions they add (no id here moves)."""
        done = [self.run.translate(d) for d in derivs]
        ren = self.run.finalize()
        labels = ren.label_ctx(_ordered_union(self._pids, *(pids for _, pids in done)))
        return [(ren.term(t), ren.label_ctx(pids)) for t, pids in done], labels


class Translation:
    """One minting scope.  All artifacts meant to share label ids must be
    produced by the same Translation and renumbered by its one `Renumbering`,
    which each `finalize()` grows: a later lambda's stamp ranks after every
    earlier one, so no id, entry or term given out before moves.

    The run derives the types the translation reads but a derivation does
    not hold (a variable's, an application's, a conversion target's, closure
    telescope types, return types, context entries), each under a fresh
    `budget`: a type that contains a suspension, or is read under a context
    that holds one, by suspension-calculus inference, any other type by
    source inference.  So one run translates
    source derivations and suspension-calculus derivations alike.

    A type read only for its definitions (a variable's, an application's, a
    conversion target) is not derived when neither it nor its context holds
    a lambda.  That is exact: inference over lambda-free inputs yields only
    lambda-free types (lookups, instantiations, normal forms), so its
    translation would mint nothing.  The other reads need the term itself.

    A plain type, one that it and every type of its context build from
    `_PLAIN` alone and none of whose `Pi` binders but `_` is a name of the
    context or of an enclosing `Pi`, translates to itself with no definitions
    and is not derived either.  That is exact: with no lambda the derivation
    mints nothing; with no lambda, `add` or suspension there is no redex, so
    it spends no step and no budget runs out; the kernel renames a binder
    only when it is already bound and is not `_` (`kernel.infer`), so the
    subject it rebuilds is the type itself; and the types read are checked
    context entries or inferred types, so the derivation cannot fail.
    What the shortcuts ask of a context, its facts, goes down the walk with
    it: a premise whose context adds the names its rule binds (a Π's
    codomain, a lambda's body, a suspension's subject; `kernel.infer`) gets
    the facts grown by those entries (`_grow`), any other its conclusion's.
    What they ask of a type is kept in the run, and a walk stops at a type
    read before (`_plain_binders`): nested lambdas' return types are read once.

    The run derives through one inference table per calculus, so each
    `(ctx, type)` is derived once and a repeat read gets the same derivation
    object back (exact, see `kernel.infer`), and it translates each
    derivation object once: a table keyed by identity holds the object, so
    no id is reused while it lives.  Types that share parts, σ-states that
    share what a step left alone, and the normal-form derivation that
    reduction preservation and the diagram check both translate are walked
    once.  Skipping a repeat walk is exact: it would mint only entries whose
    first stamp already exists, so the order of first stamps, and with it
    every final id, is unchanged.  Provisional ids belong to one run, so the
    tables do too.
    """

    def __init__(self, budget: int) -> None:
        self._by_key: dict[object, int] = {}
        # provisional id = list index; the run's Renumbering gives each its final id
        self._entries: list[LabelEntry] = []
        self._first_stamp: list[int] = []
        self._stamp = 0
        self._renumbering = Renumbering({}, self._entries)
        # translated explicit-substitution nodes; a table hit adds none for
        # the suspensions inside it
        self.subst_nodes = 0
        self._budget = budget
        # the source calculus with the run's inference table, made on first use, and
        # the σ calculus with its own, which the diagram check's σ-states share
        self._cc, self.sigma = None, replace(SIGMA, table={})
        # id(derivation) -> (that derivation, its translation)
        self._done: dict[int, tuple[Derivation, tuple[Term, tuple[int, ...]]]] = {}
        # id(type read) -> (that type, its `_plain_binders`)
        self._binders: dict[int, tuple[Term, frozenset[str] | None]] = {}

    # -- minting

    def _mint(self, entry: LabelEntry, stamp: int) -> int:
        key = entry_canon(entry)
        pid = self._by_key.get(key)
        if pid is None:
            pid = len(self._entries)
            self._by_key[key] = pid
            self._entries.append(entry)
            self._first_stamp.append(stamp)
        return pid

    # -- translation proper

    def translate(self, deriv: Derivation) -> tuple[Term, tuple[int, ...]]:
        """Translated term plus the extracted definitions (provisional ids)."""
        hit = self._done.get(id(deriv))  # before the context's facts are read
        return hit[1] if hit else self._walk(deriv, _grow(_EMPTY_FACTS, deriv.ctx.entries))

    def _walk(self, deriv: Derivation, facts: _Facts) -> tuple[Term, tuple[int, ...]]:
        """`translate`, given the facts of `deriv.ctx`."""
        hit = self._done.get(id(deriv))
        if hit is not None:
            return hit[1]
        rule = deriv.rule
        ch = deriv.children
        if rule == "ty-Var":
            out = deriv.subject, self._type_labels(deriv.ctx, facts, deriv.type)
        elif rule in ("ty-Universe", "ty-Nat", "ty-NatLit"):
            out = deriv.subject, ()
        elif rule == "ty-Add":
            tl, dl = self._walk(ch[0], facts)
            tr, dr = self._walk(ch[1], facts)
            out = Add(tl, tr), _ordered_union(dl, dr)
        elif rule == "ty-Pi":
            ta, da = self._walk(ch[0], facts)
            tb, db = self._walk(ch[1], _grow(facts, ch[1].ctx.entries[len(deriv.ctx):]))
            assert isinstance(deriv.subject, Pi)
            out = Pi(deriv.subject.binder, ta, tb), _ordered_union(da, db)
        elif rule == "ty-Lambda":
            out = self._translate_lambda(deriv, facts)
        elif rule == "ty-Apply":
            tm, dm = self._walk(ch[0], facts)
            tn, dn = self._walk(ch[1], facts)
            dty = self._type_labels(deriv.ctx, facts, deriv.type)
            out = App(tm, tn), _ordered_union(dm, dn, dty)
        elif rule == "ty-Equiv":
            tm, dm = self._walk(ch[0], facts)
            dty = self._type_labels(deriv.ctx, facts, deriv.type)
            out = tm, _ordered_union(dm, dty)
        elif rule == "s-ty-Subst":
            tm, dm = self._walk(ch[0], _grow(facts, ch[0].ctx.entries[len(deriv.ctx):]))
            assert isinstance(deriv.subject, ESubst)
            mapping: dict[str, Term] = {}
            parts = [dm]
            for sb, child in zip(deriv.subject.bindings, ch[1:]):
                tv, dv = self._walk(child, facts)
                mapping[sb.name] = tv
                parts.append(dv)
            self.subst_nodes += 1
            out = subst_many(tm, mapping), _ordered_union(*parts)
        else:
            raise ValueError(f"cannot translate derivation rule {rule!r}")
        self._done[id(deriv)] = (deriv, out)
        return out

    def _translate_lambda(self, deriv: Derivation, facts: _Facts) -> tuple[Term, tuple[int, ...]]:
        stamp = self._stamp
        self._stamp += 1
        da_deriv, dm_deriv = deriv.children
        body_facts = _grow(facts, dm_deriv.ctx.entries[len(deriv.ctx):])
        ta, da = self._walk(da_deriv, facts)
        tm, dm = self._walk(dm_deriv, body_facts)
        subject = deriv.subject
        assert isinstance(subject, Lam)
        tele = fv_telescope(deriv.ctx, subject, deriv.type)
        tele_t = tuple((x, self._translate_type(deriv.ctx, facts, a)[0]) for x, a in tele)
        tb, _ = self._translate_type(dm_deriv.ctx, body_facts, dm_deriv.type)
        pid = self._mint(
            LabelEntry(-1, tele_t, subject.binder, ta, tm, tb), stamp
        )
        term = Label(pid, tuple(Var(x) for x, _ in tele))
        return term, _ordered_union(da, dm, (pid,))

    def translate_context(self, ctx: Ctx) -> tuple[Ctx, tuple[int, ...]]:
        """Pointwise translation of a source context plus its definitions."""
        return self._translate_context(ctx)[:2]

    def _translate_context(self, ctx: Ctx) -> tuple[Ctx, tuple[int, ...], _Facts]:
        """`translate_context`, and the facts of ctx."""
        out, prefix, facts = [], Ctx(), _EMPTY_FACTS
        defs: tuple[int, ...] = ()
        for x, a in ctx:
            ta, da = self._translate_type(prefix, facts, a)
            out.append((x, ta))
            prefix, facts = prefix.extend(x, a), _grow(facts, ((x, a),))
            defs = _ordered_union(defs, da)
        return Ctx(tuple(out)), defs, facts

    def _type_labels(self, ctx: Ctx, facts: _Facts, ty: Term) -> tuple[int, ...]:
        """The definitions of a type read only for them (see the class)."""
        if facts[0] and uses_only(ty, _LAM_FREE):
            return ()
        return self._translate_type(ctx, facts, ty)[1]

    def _translate_type(self, ctx: Ctx, facts: _Facts, ty: Term) -> tuple[Term, tuple[int, ...]]:
        """Translate a type the walk reads: a plain one is itself (see the
        class), any other goes through its derivation."""
        names = facts[1]
        if names is not None:
            binders = self._plain_binders(ty)
            if binders is not None and names.isdisjoint(binders):
                return ty, ()
        return self._walk(self._derive(ctx, facts, ty), facts)

    def _plain_binders(self, ty: Term) -> frozenset[str] | None:
        """The `Pi` binders of ty but `_`, or None if ty is not built from
        `_PLAIN` alone or one rebinds a name an enclosing `Pi` binds: ty is
        plain under a plain context exactly when these miss its names.  Kept
        in the run per type read; the walk (a stack) stops at a kept one."""
        memo = self._binders
        if id(ty) not in memo:
            binders: set[str] | None = set()
            enclosing: set[str] = set()  # the binders whose codomain is being walked
            stack: list[Term | str] = [ty]
            while stack and binders is not None:
                t = stack.pop()
                cls = type(t)
                if cls is str:  # the codomain of the Pi binding t is done
                    enclosing.remove(t)
                elif cls is not Pi and cls is not App:
                    binders = binders if cls in _PLAIN else None
                elif id(t) in memo:  # a type read before
                    kept = memo[id(t)][1]
                    ok = kept is not None and enclosing.isdisjoint(kept)
                    binders = binders | kept if ok else None
                elif cls is App or t.binder == "_":  # `_` is never renamed (`kernel.infer`)
                    stack += (t.fn, t.arg) if cls is App else (t.domain, t.codomain)
                elif t.binder in enclosing:
                    binders = None
                else:
                    binders.add(t.binder)
                    enclosing.add(t.binder)
                    stack += (t.domain, t.binder, t.codomain)  # domain: after the binder is released
            memo[id(ty)] = ty, None if binders is None else frozenset(binders)
        return memo[id(ty)][1]

    def _derive(self, ctx: Ctx, facts: _Facts, ty: Term) -> Derivation:
        """The derivation of a type, under a fresh budget.  Source inference
        can neither reduce nor enter a suspension, so it takes only a type
        whose context holds none either."""
        if facts[2] and uses_only(ty, CC_TERMS):
            calc = self._cc = self._cc or replace(CC, table={})
        else:
            calc = self.sigma
        return infer(calc, ctx, ty, Budget(self._budget))

    # -- finalization

    def finalize(self) -> "Renumbering":
        final = self._renumbering._map  # extended by the pids minted since the last call
        new = sorted(range(len(final), len(self._entries)), key=self._first_stamp.__getitem__)
        final.update(zip(new, range(len(final), len(self._entries))))
        return self._renumbering


class Renumbering:
    """Applies the provisional-to-final id mapping to run artifacts.  Its run
    only adds ids to the mapping, so what it renumbered before stays right."""

    def __init__(self, mapping: dict[int, int], entries: list[LabelEntry]):
        self._map = mapping
        self._entries = entries
        self._done: dict[int, LabelEntry] = {}  # renumbered entries, shared by every label_ctx
        self._terms: dict[int, tuple[Term, Term]] = {}  # id(t) -> (t, t renumbered)

    def term(self, t: Term) -> Term:
        """t renumbered: a node with no label inside is itself, a shared one is walked once."""
        if type(t) is Var:  # the commonest node, and never a label
            return t
        hit = self._terms.get(id(t))
        if hit is None:
            kids = children(t)
            new = tuple(map(self.term, kids))
            out = Label(self._map[t.label_id], new) if type(t) is Label else (
                rebuild(t, new) if any(map(is_not, new, kids)) else t)
            hit = self._terms[id(t)] = t, out
        return hit[1]

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


def _grow(facts: _Facts, entries: Iterable[tuple[str, Term]]) -> _Facts:
    """The facts of a context with these entries appended, from its own."""
    lam_free, names, source = facts
    for x, a in entries:
        if uses_only(a, _PLAIN):  # so lambda-free and a source term too
            names = None if names is None else names | {x}
        else:
            lam_free = lam_free and uses_only(a, _LAM_FREE)
            names, source = None, source and uses_only(a, CC_TERMS)
    return lam_free, names, source


# ---------------------------------------------------------------------------
# Public entry points


def defun(ctx: Ctx, term: Term, budget: int = DEFAULT_BUDGET) -> TranslationResult:
    """Translate a judgement: context first, then the term, then its type."""
    deriv = cc_infer(ctx, term, budget)
    run = Translation(budget)
    dcc_ctx, ctx_pids, facts = run._translate_context(ctx)
    term_t, term_pids = run._walk(deriv, facts)
    type_t, type_pids = run._translate_type(ctx, facts, deriv.type)
    label_pids = _ordered_union(ctx_pids, term_pids)
    ren = run.finalize()
    return TranslationResult(
        derivation=deriv,
        term=ren.term(term_t),
        type_term=ren.term(type_t),
        defs=ren.label_ctx(term_pids),
        type_defs=ren.label_ctx(type_pids),
        ctx_defs=ren.label_ctx(ctx_pids),
        dcc_ctx=ren.ctx(dcc_ctx),
        labels=ren.label_ctx(label_pids),
        run=run,
        _pids=label_pids,
    )


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
