"""Shared term syntax for the three calculi plus contexts and binding operations.

One node family covers all calculi; each calculus restricts the constructors it
accepts.  Source terms never contain Label; defunctionalized terms never
contain Lam or ESubst; the explicit-substitution calculus is the source
calculus plus ESubst nodes.

Nodes are immutable: a node's children never change after it is built.  That
is what makes the per-node free-variable cache (`free_vars`) exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


class _Node:
    """Base of every term constructor: one slot, outside the dataclass
    fields, caching the node's free variables (filled by `free_vars`)."""

    __slots__ = ("_fv",)


@dataclass(frozen=True, slots=True)
class Var(_Node):
    name: str


@dataclass(frozen=True, slots=True)
class Universe(_Node):
    level: int


@dataclass(frozen=True, slots=True)
class Pi(_Node):
    binder: str
    domain: "Term"
    codomain: "Term"


@dataclass(frozen=True, slots=True)
class Lam(_Node):
    binder: str
    domain: "Term"
    body: "Term"


@dataclass(frozen=True, slots=True)
class App(_Node):
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class NatType(_Node):
    pass


@dataclass(frozen=True, slots=True)
class NatLit(_Node):
    value: int


@dataclass(frozen=True, slots=True)
class Add(_Node):
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True, slots=True)
class Label(_Node):
    """A first-class function label applied to its closure arguments."""

    label_id: int
    args: tuple["Term", ...] = ()


@dataclass(frozen=True, slots=True)
class SBind:
    """One entry of a suspended substitution: name, declared type, value.

    Within a suspension node, an entry's domain may mention the names of
    earlier entries (telescope scoping); every value lives in the scope
    outside the node.
    """

    name: str
    domain: "Term"
    value: "Term"


@dataclass(frozen=True, slots=True)
class ESubst(_Node):
    """Suspended parallel substitution subject{x1:A1 |-> N1, ..., xk:Ak |-> Nk}.

    The names bind in the subject (and in later domains); they are distinct
    and never scope over the values.
    """

    subject: "Term"
    bindings: tuple[SBind, ...]


Term = Union[Var, Universe, Pi, Lam, App, NatType, NatLit, Add, Label, ESubst]

NAT = NatType()


# ---------------------------------------------------------------------------
# The child map: every structural walk that treats binders uniformly


def _suspension_children(t: ESubst) -> tuple[Term, ...]:
    return (t.subject, *(sb.value for sb in t.bindings), *(sb.domain for sb in t.bindings))


def _rebuild_suspension(t: ESubst, kids) -> ESubst:
    k = len(t.bindings)
    values, domains = kids[1 : k + 1], kids[k + 1 :]
    return ESubst(
        kids[0], tuple(SBind(sb.name, d, v) for sb, v, d in zip(t.bindings, values, domains))
    )


# constructor -> (its children, the node rebuilt from new children)
_CHILD_MAP = {
    Pi: (lambda t: (t.domain, t.codomain), lambda t, k: Pi(t.binder, *k)),
    Lam: (lambda t: (t.domain, t.body), lambda t, k: Lam(t.binder, *k)),
    App: (lambda t: (t.fn, t.arg), lambda t, k: App(*k)),
    Add: (lambda t: (t.lhs, t.rhs), lambda t, k: Add(*k)),
    Label: (lambda t: t.args, lambda t, k: Label(t.label_id, tuple(k))),
    ESubst: (_suspension_children, _rebuild_suspension),
}
_LEAF = (lambda t: (), lambda t, k: t)


def children(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of t.  A suspension lists its subject, then its
    values, then its domains, so the positions evaluation may enter (subject
    and values) form a prefix."""
    return _CHILD_MAP.get(type(t), _LEAF)[0](t)


def rebuild(t: Term, kids: tuple[Term, ...]) -> Term:
    """t with its children, in the order `children` lists them, replaced."""
    return _CHILD_MAP.get(type(t), _LEAF)[1](t, kids)


def map_children(f, t: Term) -> Term:
    """t with f applied to each of its children."""
    entry = _CHILD_MAP.get(type(t))
    if entry is None:
        return t
    kids, rebuilt = entry
    return rebuilt(t, tuple(map(f, kids(t))))


def uses_only(t: Term, allowed: frozenset[type]) -> bool:
    """True if every node of t is built from the allowed constructors."""
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) not in allowed:
            return False
        entry = _CHILD_MAP.get(type(t))
        if entry is not None:
            stack.extend(entry[0](t))
    return True


# ---------------------------------------------------------------------------
# Free variables


def free_vars(t: Term) -> tuple[str, ...]:
    """Free variable names in first-occurrence (left-to-right) order.

    Computed once per node, from its children's cached tuples, and kept on
    the node."""
    try:
        return t._fv
    except AttributeError:
        pass
    match t:
        case Var(name):
            fv = (name,)
        case Pi(binder, domain, body) | Lam(binder, domain, body):
            fv = _ordered_union(free_vars(domain), _without(free_vars(body), (binder,)))
        case ESubst(subject, bindings):
            parts, names = [], ()
            for sb in bindings:
                parts.append(_without(free_vars(sb.domain), names))
                parts.append(free_vars(sb.value))
                names += (sb.name,)
            fv = _ordered_union(*parts, _without(free_vars(subject), names))
        case _:
            fv = _ordered_union(*map(free_vars, children(t)))
    object.__setattr__(t, "_fv", fv)
    return fv


def _without(names: tuple[str, ...], bound: tuple[str, ...]) -> tuple[str, ...]:
    """names less the bound ones; names itself when none is bound."""
    if not any(b in names for b in bound):
        return names
    return tuple(n for n in names if n not in bound)


def _ordered_union(*parts: tuple[str, ...]) -> tuple[str, ...]:
    """The names of parts in first-occurrence order; a lone non-empty part
    is returned as it is, so nodes share their child's tuple."""
    nonempty = [p for p in parts if p]
    if len(nonempty) <= 1:
        return nonempty[0] if nonempty else ()
    return tuple(dict.fromkeys(n for p in nonempty for n in p))


def free_var_set(t: Term) -> frozenset[str]:
    return frozenset(free_vars(t))


def fresh_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    """base if unused, else base with primes appended until unused."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


# ---------------------------------------------------------------------------
# Substitution

Mapping = dict[str, Term]


def _narrow(mapping: Mapping, t: Term) -> Mapping:
    """Restrict a substitution to the keys actually free in t."""
    fv = free_vars(t)
    return {k: v for k, v in mapping.items() if k in fv}


def _under_binder(binder: str, body: Term, mapping: Mapping) -> tuple[str, Term]:
    """Apply mapping below a binder, freshening it to avoid capture."""
    inner = {k: v for k, v in mapping.items() if k != binder}
    inner = _narrow(inner, body)
    if not inner:
        return binder, body
    clash = any(binder in free_vars(v) for v in inner.values())
    if clash:
        avoid = set().union(*(free_var_set(v) for v in inner.values()))
        avoid |= free_var_set(body)
        avoid |= set(inner)
        fresh = fresh_name(binder, avoid)
        body = _subst(body, {binder: Var(fresh)})
        binder = fresh
    return binder, _subst(body, inner)


def _subst_suspension(
    bindings: tuple[SBind, ...], subject: Term, mapping: Mapping
) -> tuple[tuple[SBind, ...], Term]:
    """Apply mapping to a suspension node: values see the outer scope in
    full; domains and the subject see it below the binding names."""
    vals2 = [_subst(sb.value, mapping) for sb in bindings]
    binds = list(bindings)
    subj = subject
    out: list[SBind] = []
    inner = dict(mapping)
    for i, _ in enumerate(binds):
        sb = binds[i]
        dom2 = _subst(sb.domain, inner)
        name = sb.name
        nxt = {k: v for k, v in inner.items() if k != name}
        if any(name in free_vars(v) for v in nxt.values()):
            avoid = set().union(*(free_var_set(v) for v in nxt.values())) | set(nxt)
            name, subj = rename_binding(binds, i, subj, avoid)
        out.append(SBind(name, dom2, vals2[i]))
        inner = nxt
    return tuple(out), _subst(subj, inner)


def rename_binding(
    binds: list[SBind], i: int, subj: Term, avoid: set[str]
) -> tuple[str, Term]:
    """A fresh name for binds[i], outside avoid, the subject and the later
    entries; the later domains (in place) and the subject follow the rename."""
    name = binds[i].name
    avoid = avoid | free_var_set(subj) | {name}
    for later in binds[i + 1 :]:
        avoid |= free_var_set(later.domain) | {later.name}
    fresh = fresh_name(name, avoid)
    for j in range(i + 1, len(binds)):
        later = binds[j]
        binds[j] = SBind(later.name, rename_free(later.domain, name, fresh), later.value)
    return fresh, rename_free(subj, name, fresh)


def _subst(t: Term, mapping: Mapping) -> Term:
    mapping = _narrow(mapping, t)
    if not mapping:
        return t
    match t:
        case Var(name):
            return mapping.get(name, t)
        case Pi(binder, domain, body) | Lam(binder, domain, body):
            domain2 = _subst(domain, mapping)
            binder2, body2 = _under_binder(binder, body, mapping)
            return type(t)(binder2, domain2, body2)
        case ESubst(subject, bindings):
            bindings2, subject2 = _subst_suspension(bindings, subject, mapping)
            return ESubst(subject2, bindings2)
    return map_children(lambda c: _subst(c, mapping), t)


def subst_many(t: Term, mapping: Mapping) -> Term:
    """Simultaneous capture-avoiding substitution of terms for free variables."""
    return _subst(t, dict(mapping))


def subst(t: Term, name: str, value: Term) -> Term:
    return subst_many(t, {name: value})


def rename_free(t: Term, old: str, new: str) -> Term:
    """Rename a free variable (a capture-avoiding substitution of a name)."""
    return _subst(t, {old: Var(new)})


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality modulo bound-variable names."""
    return _aeq(a, b, {}, {}, 0)


def _aeq(a: Term, b: Term, enva: dict[str, int], envb: dict[str, int], depth: int) -> bool:
    match a, b:
        case Var(x), Var(y):
            if x in enva or y in envb:
                return enva.get(x) == envb.get(y) and enva.get(x) is not None
            return x == y
        case (Universe(), Universe()) | (NatType(), NatType()) | (NatLit(), NatLit()):
            return a == b
        case (Pi(x, a1, b1), Pi(y, a2, b2)) | (Lam(x, a1, b1), Lam(y, a2, b2)):
            return _aeq(a1, a2, enva, envb, depth) and _aeq(
                b1, b2, {**enva, x: depth}, {**envb, y: depth}, depth + 1
            )
        case (App(f1, x1), App(f2, x2)) | (Add(f1, x1), Add(f2, x2)):
            return _aeq(f1, f2, enva, envb, depth) and _aeq(x1, x2, enva, envb, depth)
        case Label(i, args1), Label(j, args2):
            return (
                i == j
                and len(args1) == len(args2)
                and all(_aeq(p, q, enva, envb, depth) for p, q in zip(args1, args2))
            )
        case ESubst(m1, bs1), ESubst(m2, bs2):
            if len(bs1) != len(bs2):
                return False
            ea, eb, d = enva, envb, depth
            for sb1, sb2 in zip(bs1, bs2):
                if not _aeq(sb1.domain, sb2.domain, ea, eb, d):
                    return False
                if not _aeq(sb1.value, sb2.value, enva, envb, depth):
                    return False
                ea = {**ea, sb1.name: d}
                eb = {**eb, sb2.name: d}
                d += 1
            return _aeq(m1, m2, ea, eb, d)
        case _:
            return False


# ---------------------------------------------------------------------------
# Canonical (de Bruijn style) serialization; used for label identity


def canon(t: Term, env: dict[str, int] | None = None, depth: int = 0):
    """Hashable alpha-invariant shape of a term.

    Bound names become binding levels; free names stay nominal; labels stay
    nominal by id.
    """
    env = env or {}

    def go(t: Term, env: dict[str, int], depth: int):
        match t:
            case Var(name):
                if name in env:
                    return ("b", env[name])
                return ("f", name)
            case Universe() | NatType() | NatLit():
                return t  # closed, and hashable as it stands
            case Pi(binder, domain, body) | Lam(binder, domain, body):
                return (
                    type(t).__name__,
                    go(domain, env, depth),
                    go(body, {**env, binder: depth}, depth + 1),
                )
            case App() | Add():
                return (type(t).__name__, *(go(c, env, depth) for c in children(t)))
            case Label(label_id, args):
                return ("label", label_id, tuple(go(a, env, depth) for a in args))
            case ESubst(subject, bindings):
                parts = []
                env2, d = env, depth
                for sb in bindings:
                    parts.append((go(sb.domain, env2, d), go(sb.value, env, depth)))
                    env2 = {**env2, sb.name: d}
                    d += 1
                return ("esub", tuple(parts), go(subject, env2, d))
        raise TypeError(f"not a term: {t!r}")

    return go(t, env, depth)


# ---------------------------------------------------------------------------
# Type contexts


class _Entries:
    """Ordered entries looked up by key (a name, or a label id)."""

    entries: tuple

    def __contains__(self, key) -> bool:
        return self.lookup(key) is not None

    def __iter__(self) -> Iterator:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Ctx(_Entries):
    """An ordered telescope of (name, type) assumptions; names are distinct."""

    entries: tuple[tuple[str, Term], ...] = ()

    def lookup(self, name: str) -> Term | None:
        for n, ty in self.entries:
            if n == name:
                return ty
        return None

    def extend(self, name: str, ty: Term) -> "Ctx":
        if self.lookup(name) is not None:
            raise ValueError(f"context already binds {name!r}")
        return Ctx(self.entries + ((name, ty),))

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


# ---------------------------------------------------------------------------
# Label contexts


@dataclass(frozen=True)
class LabelEntry:
    """l(x1:A1,...,xn:An, x:A -> M:B): a named function definition.

    The telescope binds the closure variables; arg_name binds the function
    argument in body and ret_type.
    """

    label_id: int
    telescope: tuple[tuple[str, Term], ...]
    arg_name: str
    arg_type: Term
    body: Term
    ret_type: Term

    def arity(self) -> int:
        return len(self.telescope)


def entry_canon(e: LabelEntry):
    """Alpha-invariant shape of an entry, keyed for minting and comparison."""
    env: dict[str, int] = {}
    parts = []
    for i, (x, a) in enumerate(e.telescope):
        parts.append(canon(a, env, i))
        env[x] = i
    n = len(e.telescope)
    arg_ty = canon(e.arg_type, env, n)
    env2 = {**env, e.arg_name: n}
    return (
        tuple(parts),
        arg_ty,
        canon(e.body, env2, n + 1),
        canon(e.ret_type, env2, n + 1),
    )


def entry_alpha_eq(e1: LabelEntry, e2: LabelEntry) -> bool:
    """Entry equality modulo telescope and argument names (ids must agree)."""
    return e1.label_id == e2.label_id and entry_canon(e1) == entry_canon(e2)


@dataclass(frozen=True)
class LabelCtx(_Entries):
    """Ordered label definitions; later entries may reference earlier labels."""

    entries: tuple[LabelEntry, ...] = ()

    def lookup(self, label_id: int) -> LabelEntry | None:
        for e in self.entries:
            if e.label_id == label_id:
                return e
        return None

    def ids(self) -> tuple[int, ...]:
        return tuple(e.label_id for e in self.entries)
