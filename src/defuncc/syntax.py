"""Shared term syntax for the three calculi plus contexts and binding operations.

One node family covers all calculi; each calculus restricts the constructors it
accepts.  Source terms never contain Label; label-calculus terms never
contain Lam or ESubst; the explicit-substitution calculus is the source
calculus plus ESubst nodes.

Nodes are immutable: a node's children never change after it is built.  That
is what makes the per-node caches, free variables (`free_vars`) and hash,
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union, get_args


class _Node:
    """Base of every term constructor: three slots, outside the dataclass
    fields, caching the node's free variables (filled by `free_vars`), its
    hash (filled by `hash`) and its canonical key (filled by `canon`)."""

    __slots__ = ("_fv", "_hash", "_canon")


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


def _cached_hash(t: Term) -> int:
    """The hash the dataclass gives t, computed once per node.  Children come
    first, from an explicit stack, so a deep term costs no recursion."""
    try:
        return t._hash
    except AttributeError:
        pass
    stack = [t]
    while stack:
        todo = [c for c in children(stack[-1]) if not hasattr(c, "_hash")]
        if todo:
            stack += todo
        else:
            u = stack.pop()
            object.__setattr__(u, "_hash", _FIELD_HASH[type(u)](u))
    return t._hash


# constructor -> the hash of its fields, as the dataclass generated it
_FIELD_HASH = {}
for _cls in get_args(Term):
    _FIELD_HASH[_cls], _cls.__hash__ = _cls.__hash__, _cached_hash


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
# The binding table: every walk that must know which names scope where


def _split_suspension(t: ESubst):
    """Domain i under the first i names, each value under none, the subject
    under all of them."""
    kids: list[tuple[int, Term]] = []
    for i, sb in enumerate(t.bindings):
        kids += ((i, sb.domain), (0, sb.value))
    kids.append((len(t.bindings), t.subject))
    return None, tuple(sb.name for sb in t.bindings), kids


def _build_suspension(t: ESubst, names, kids) -> ESubst:
    return ESubst(kids[-1], tuple(SBind(x, *kids[2 * i : 2 * i + 2]) for i, x in enumerate(names)))


# constructor -> (split, build).  split(t) gives t's data that is neither a
# name nor a child (a label's id), the names t binds, and t's children in
# textual order, each with how many of those names (a prefix) scope over it;
# build(t, names, children) is t with new names and children.
_BINDING = {
    Pi: (
        lambda t: (None, (t.binder,), ((0, t.domain), (1, t.codomain))),
        lambda t, xs, k: Pi(xs[0], *k),
    ),
    Lam: (
        lambda t: (None, (t.binder,), ((0, t.domain), (1, t.body))),
        lambda t, xs, k: Lam(xs[0], *k),
    ),
    App: (lambda t: (None, (), ((0, t.fn), (0, t.arg))), lambda t, xs, k: App(*k)),
    Add: (lambda t: (None, (), ((0, t.lhs), (0, t.rhs))), lambda t, xs, k: Add(*k)),
    Label: (
        lambda t: (t.label_id, (), tuple((0, a) for a in t.args)),
        lambda t, xs, k: Label(t.label_id, tuple(k)),
    ),
    ESubst: (_split_suspension, _build_suspension),
}


def _scopes(env: dict[str, int], names: tuple[str, ...], depth: int):
    """env, then env extended by each longer prefix of names, the j-th name
    bound at level depth + j."""
    if not names:
        return (env,)
    envs = [env]
    for j, x in enumerate(names):
        envs.append({**envs[-1], x: depth + j})
    return envs


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
    entry = _BINDING.get(type(t))
    if entry is None:
        fv = (t.name,) if type(t) is Var else ()
    else:
        _, names, kids = entry[0](t)
        parts = []
        for n, c in kids:
            parts.append(_without(free_vars(c), names[:n]) if n else free_vars(c))
        fv = _ordered_union(*parts)
    object.__setattr__(t, "_fv", fv)
    return fv


def _without(names: tuple[str, ...], bound: tuple[str, ...]) -> tuple[str, ...]:
    """names less the bound ones; names itself when none is bound."""
    if not any(b in names for b in bound):
        return names
    return tuple(n for n in names if n not in bound)


def _ordered_union(*parts: tuple) -> tuple:
    """The items of duplicate-free parts in first-occurrence order; a lone
    non-empty part is returned as it is, so nodes share their child's tuple."""
    first, seen = (), None  # seen: the union so far, once two parts are non-empty
    for p in parts:
        if p and not first:
            first = p
        elif p:
            seen = seen or dict.fromkeys(first)
            for n in p:
                seen[n] = None  # a key already there keeps its place
    return first if seen is None else tuple(seen)


def free_var_set(t: Term) -> frozenset[str]:
    return frozenset(free_vars(t))


def fresh_name(base: str, avoid: set[str] | frozenset[str]) -> str:
    """base if unused, else base with primes appended until unused."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


def freshen_binder(t: Term, i: int, avoid) -> Term:
    """t with its i-th binder renamed to a name outside avoid, outside the
    names free where that binder binds, and outside t's other binders; the
    children it binds over follow the rename."""
    split, build = _BINDING[type(t)]
    _, names, kids = split(t)
    taken = set(avoid).union(names, *(free_vars(c) for n, c in kids if n > i))
    old, new = names[i], fresh_name(names[i], taken)
    kids = [_subst(c, {old: Var(new)}) if n > i else c for n, c in kids]
    return build(t, names[:i] + (new,) + names[i + 1 :], kids)


# ---------------------------------------------------------------------------
# Substitution

Mapping = dict[str, Term]


def _subst(t: Term, mapping: Mapping) -> Term:
    fv = free_vars(t)
    mapping = {k: v for k, v in mapping.items() if k in fv}
    if not mapping:
        return t
    if type(t) is Var:
        return mapping[t.name]
    split, build = _BINDING[type(t)]
    _, names, kids = split(t)
    for i, x in enumerate(names):
        if not any(x in free_vars(v) for v in mapping.values()):
            continue
        # the entries that land where binder i binds; rename it if it would capture one
        landing = {
            k: v for n, c in kids if n > i
            for k, v in mapping.items() if k not in names[:n] and k in free_vars(c)
        }
        if any(x in free_vars(v) for v in landing.values()):
            t = freshen_binder(t, i, set(landing).union(*map(free_vars, landing.values())))
            _, names, kids = split(t)
    out = []
    for n, c in kids:
        inner = {k: v for k, v in mapping.items() if k not in names[:n]} if n else mapping
        out.append(_subst(c, inner))
    return build(t, names, out)


def subst_many(t: Term, mapping: Mapping) -> Term:
    """Simultaneous capture-avoiding substitution of terms for free variables."""
    return _subst(t, dict(mapping))


def subst(t: Term, name: str, value: Term) -> Term:
    return subst_many(t, {name: value})


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality modulo bound-variable names."""
    return _aeq(a, b, {}, {}, 0)


def _aeq(a: Term, b: Term, enva: dict[str, int], envb: dict[str, int], depth: int) -> bool:
    if a is b:  # one node: equal exactly when each of its free names is bound alike
        return not (enva or envb) or all(enva.get(x) == envb.get(x) for x in free_vars(a))
    if type(a) is not type(b):
        return False
    if type(a) is Var:
        x, y = a.name, b.name
        if x in enva or y in envb:
            return enva.get(x) == envb.get(y) and enva.get(x) is not None
        return x == y
    entry = _BINDING.get(type(a))
    if entry is None:
        return a == b
    (tag_a, names_a, kids_a), (tag_b, names_b, kids_b) = entry[0](a), entry[0](b)
    if tag_a != tag_b or len(kids_a) != len(kids_b):
        return False
    envs_a, envs_b = _scopes(enva, names_a, depth), _scopes(envb, names_b, depth)
    for (n, p), (_, q) in zip(kids_a, kids_b):
        if not _aeq(p, q, envs_a[n], envs_b[n], depth + n):
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical (de Bruijn style) serialization; used for label identity


def canon(t: Term, env: dict[str, int] | None = None, depth: int = 0):
    """Hashable alpha-invariant shape of a term under env (name -> binding
    level, as `_scopes` keeps them) at depth.

    Bound names become de Bruijn indices, free names stay nominal, labels
    stay nominal by id; so a term none of whose free names env binds has one
    key at every depth, computed once and kept on the node.  A key holds
    tuples, strings, ints and None only, so hashing it runs no Python code."""
    if type(t) is Var:
        x = t.name
        return ("b", depth - 1 - env[x]) if env and x in env else ("f", x)
    entry = _BINDING.get(type(t))
    kept = entry is None or not env or env.keys().isdisjoint(free_vars(t))
    if kept:
        try:
            return t._canon
        except AttributeError:
            env = {}
    if entry is None:  # a closed leaf: a plain tuple, so a key holding it hashes in C
        key = (type(t).__name__, *map(t.__getattribute__, t.__match_args__))
    else:
        tag, names, kids = entry[0](t)
        envs, out = _scopes(env, names, depth), [type(t).__name__, tag]
        for n, c in kids:
            out.append(canon(c, envs[n], depth + n))
        key = tuple(out)
    if kept:
        object.__setattr__(t, "_canon", key)
    return key


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
    """An ordered telescope of (name, type) assumptions with distinct names,
    but for the anonymous binder `_`, which may repeat: `check_context` checks
    a context from outside, the kernel renames any other binder already bound."""

    entries: tuple[tuple[str, Term], ...] = ()

    def lookup(self, name: str) -> Term | None:
        for n, ty in self.entries:
            if n == name:
                return ty
        return None

    def extend(self, name: str, ty: Term) -> "Ctx":
        """This context and one more entry, and nothing else: a translation
        carries what it asks of a context down its walk instead."""
        child = _new(Ctx)  # set directly: as fast as the frozen __init__ alone
        _set(child, "entries", self.entries + ((name, ty),))
        return child

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)


_FIELD_HASH[Ctx], Ctx.__hash__ = Ctx.__hash__, _cached_hash  # hashed once, as terms are
_new, _set = object.__new__, object.__setattr__


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
    n = len(e.telescope)
    envs = _scopes({}, tuple(x for x, _ in e.telescope) + (e.arg_name,), 0)
    return (
        tuple(canon(a, envs[i], i) for i, (_, a) in enumerate(e.telescope)),
        canon(e.arg_type, envs[n], n),
        canon(e.body, envs[n + 1], n + 1),
        canon(e.ret_type, envs[n + 1], n + 1),
    )


def entry_alpha_eq(e1: LabelEntry, e2: LabelEntry) -> bool:
    """Entry equality modulo telescope and argument names (ids must agree)."""
    return e1 is e2 or e1.label_id == e2.label_id and entry_canon(e1) == entry_canon(e2)


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
