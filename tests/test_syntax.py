"""Substitution, alpha-equivalence, and free-variable bookkeeping."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import defuncc
from defuncc import syntax
from defuncc.harness import CheckResult
from defuncc.kernel import Derivation
from defuncc.defun import defun
from defuncc.cc import CC_TERMS
from defuncc.sigma import ccs_reduce_trace
from defuncc.surface import parse_term
from defuncc.syntax import (
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
    SBind,
    Universe,
    Var,
    alpha_eq,
    canon,
    children,
    free_var_set,
    free_vars,
    fresh_name,
    freshen_binder,
    map_children,
    rebuild,
    subst,
    subst_many,
    uses_only,
)

ONE_OF_EACH = [
    Var("x"),
    Universe(1),
    NatType(),
    NatLit(2),
    Pi("x", NatType(), Var("x")),
    Lam("x", NatType(), Var("x")),
    App(Var("f"), NatLit(1)),
    Add(NatLit(1), Var("n")),
    Label(4, (Var("a"), NatLit(0))),
    ESubst(Var("y"), (SBind("x", NatType(), NatLit(1)), SBind("y", Var("x"), Var("x")))),
]


@pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_child_map_rebuilds_every_constructor(t):
    assert rebuild(t, children(t)) == t
    assert map_children(lambda c: c, t) == t
    renamed = map_children(lambda c: subst(c, "x", Var("z")), t)
    assert children(renamed) == tuple(subst(c, "x", Var("z")) for c in children(t))


def test_suspension_children_put_subject_and_values_first():
    t = ONE_OF_EACH[-1]
    assert children(t) == (Var("y"), NatLit(1), Var("x"), NatType(), Var("x"))


def test_uses_only_finds_a_constructor_deep_inside():
    t = App(Lam("x", NatType(), Add(Var("x"), Label(0, ()))), NatLit(1))
    assert not uses_only(t, frozenset({App, Lam, Add, Var, NatType, NatLit}))
    assert uses_only(t, frozenset({App, Lam, Add, Var, NatType, NatLit, Label}))


def test_subst_replaces_matching_variable():
    assert subst(Var("x"), "x", Universe(0)) == Universe(0)


def test_subst_leaves_other_variables_alone():
    assert subst(Var("y"), "x", Universe(0)) == Var("y")


def test_subst_descends_into_label_arguments():
    t = Label(3, (Var("f"), Var("g")))
    assert subst(t, "g", Var("h")) == Label(3, (Var("f"), Var("h")))


def test_subst_stops_at_shadowing_binder():
    t = Lam("y", Var("A"), Var("y"))
    assert subst(t, "y", NatLit(1)) == t


def test_subst_under_nonshadowing_binder():
    t = Lam("y", Var("A"), Var("x"))
    out = subst(t, "x", NatLit(1))
    assert alpha_eq(out, Lam("y", Var("A"), NatLit(1)))


def test_subst_avoids_capture():
    # [y/x](fun y => x) must not let the binder capture the substituted y.
    t = Lam("y", Var("A"), Var("x"))
    out = subst(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert out.body == Var("y")
    assert alpha_eq(out, Lam("z", Var("A"), Var("y")))


def test_subst_in_pi_codomain():
    t = Pi("x", Var("A"), App(Var("P"), Var("x")))
    out = subst(t, "P", Var("Q"))
    assert alpha_eq(out, Pi("x", Var("A"), App(Var("Q"), Var("x"))))


def test_subst_many_is_parallel():
    # Parallel {x -> y, y -> x} swaps; sequential application would not.
    t = App(Var("x"), Var("y"))
    out = subst_many(t, {"x": Var("y"), "y": Var("x")})
    assert out == App(Var("y"), Var("x"))


def test_alpha_eq_identity_lambdas():
    a = Lam("x", Universe(0), Var("x"))
    b = Lam("y", Universe(0), Var("y"))
    assert alpha_eq(a, b)


def test_alpha_eq_distinguishes_label_ids():
    assert not alpha_eq(Label(1, ()), Label(2, ()))


def test_alpha_eq_distinguishes_bodies():
    a = Pi("x", Var("A"), Var("x"))
    b = Pi("x", Var("A"), Var("A"))
    assert not alpha_eq(a, b)


def test_alpha_eq_is_structural_on_ground_terms():
    assert alpha_eq(Add(NatLit(1), Var("n")), Add(NatLit(1), Var("n")))
    assert not alpha_eq(NatLit(1), NatLit(2))
    assert alpha_eq(NatType(), NatType())


def test_alpha_eq_free_variables_by_name():
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("y"))


def test_free_vars_of_lambda():
    t = Lam("x", Var("A"), App(Var("f"), Var("x")))
    assert free_vars(t) == ("A", "f")


def test_free_vars_of_universe():
    assert free_vars(Universe(0)) == ()


def test_free_vars_first_occurrence_order():
    t = App(App(Var("f"), Var("x")), App(Var("g"), Var("x")))
    assert free_vars(t) == ("f", "x", "g")


def test_free_var_set_matches_free_vars():
    t = parse_term("fun (x : A) => f (g x)")
    assert free_var_set(t) == set(free_vars(t))


def test_fresh_name_avoids_collisions():
    name = fresh_name("x", {"x", "x'", "x''"})
    assert name not in {"x", "x'", "x''"}


def test_renaming_a_free_variable_is_capture_avoiding():
    t = Lam("y", Var("A"), Var("x"))
    out = subst(t, "x", Var("y"))
    assert alpha_eq(out, Lam("z", Var("A"), Var("y")))


class TestSuspension:
    """The explicit-substitution node used by the small-step machine."""

    def test_free_vars_include_values_not_bound_names(self):
        t = ESubst(App(Var("f"), Var("x")), (SBind("x", NatType(), Var("n")),))
        assert set(free_vars(t)) == {"f", "n"}

    def test_telescope_domains_may_use_earlier_names(self):
        # In (body){A -> Nat, a -> n} the declared type of a may mention A.
        t = ESubst(
            Var("a"),
            (SBind("A", Universe(0), NatType()), SBind("a", Var("A"), Var("n"))),
        )
        assert set(free_vars(t)) == {"n"}

    def test_alpha_eq_quotients_suspension_names(self):
        a = ESubst(Var("x"), (SBind("x", NatType(), Var("n")),))
        b = ESubst(Var("y"), (SBind("y", NatType(), Var("n")),))
        assert alpha_eq(a, b)

    def test_alpha_eq_compares_values_in_outer_scope(self):
        a = ESubst(Var("x"), (SBind("x", NatType(), Var("n")),))
        b = ESubst(Var("x"), (SBind("x", NatType(), Var("m")),))
        assert not alpha_eq(a, b)

    def test_subst_reaches_values_but_respects_bound_names(self):
        t = ESubst(App(Var("x"), Var("y")), (SBind("x", NatType(), Var("v")),))
        out = subst(t, "v", NatLit(3))
        assert out == ESubst(
            App(Var("x"), Var("y")), (SBind("x", NatType(), NatLit(3)),)
        )
        # x is bound by the suspension, so outer substitution skips the subject.
        same = subst(t, "x", NatLit(9))
        assert alpha_eq(same, t)

    def test_subst_avoids_capture_by_suspension_binder(self):
        t = ESubst(App(Var("x"), Var("y")), (SBind("x", NatType(), NatLit(0)),))
        out = subst(t, "y", Var("x"))
        assert isinstance(out, ESubst)
        (sb,) = out.bindings
        assert sb.name != "x"
        assert isinstance(out.subject, App)
        assert out.subject == App(Var(sb.name), Var("x"))


@pytest.mark.parametrize(
    "source",
    [
        "Type 0",
        "fun (x : Nat) => add x 1",
        "(A : Type 0) -> (x : A) -> A",
        "f (g x)",
    ],
)
def test_alpha_eq_reflexive_on_parsed_terms(source):
    t = parse_term(source)
    assert alpha_eq(t, t)


# ---------------------------------------------------------------------------
# The per-node free-variable cache against the walker it replaced


def reference_free_vars(t) -> tuple[str, ...]:
    """Free variables in first-occurrence order, by walking the whole term."""
    out: list[str] = []
    seen: set[str] = set()

    def walk(t, bound: frozenset[str]) -> None:
        match t:
            case Var(name):
                if name not in bound and name not in seen:
                    seen.add(name)
                    out.append(name)
            case Pi(binder, domain, body) | Lam(binder, domain, body):
                walk(domain, bound)
                walk(body, bound | {binder})
            case App() | Add() | Label():
                for c in children(t):
                    walk(c, bound)
            case ESubst(subject, bindings):
                inner = bound
                for sb in bindings:
                    walk(sb.domain, inner)
                    walk(sb.value, bound)
                    inner = inner | {sb.name}
                walk(subject, inner)

    walk(t, frozenset())
    return tuple(out)


def assert_cache_matches_reference(*roots) -> set[type]:
    """Check free_vars on every subterm of the roots; the constructors seen."""
    seen: set[type] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        seen.add(type(t))
        assert free_vars(t) == reference_free_vars(t), t
        stack.extend(children(t))
    return seen


class TestFreeVariableCache:
    def test_corpus_judgements_and_their_translations(self, corpus_judgements):
        seen = set()
        for _, ctx, term in corpus_judgements:
            seen |= assert_cache_matches_reference(term, *(ty for _, ty in ctx))
            res = defun(ctx, term)
            seen |= assert_cache_matches_reference(res.term, *(ty for _, ty in res.dcc_ctx))
            for e in res.labels:
                seen |= assert_cache_matches_reference(
                    *(a for _, a in e.telescope), e.arg_type, e.body, e.ret_type
                )
        assert Label in seen

    def test_enumerated_terms(self, enumerated):
        assert len(enumerated) == 2525
        for ctx, term in enumerated:
            assert_cache_matches_reference(term, *(ty for _, ty in ctx))

    def test_sigma_states_of_diagram_traces(self, corpus_judgements, scaling):
        _, twice = scaling("twice", 2)
        terms = [twice] + [term for _, _, term in corpus_judgements]
        seen = set()
        for term in terms:
            assert uses_only(term, CC_TERMS)
            seen |= assert_cache_matches_reference(*ccs_reduce_trace(term))
        assert ESubst in seen

    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_second_call_returns_the_same_tuple(self, t):
        assert free_vars(t) is free_vars(t)

    @pytest.mark.parametrize("t", ONE_OF_EACH, ids=lambda t: type(t).__name__)
    def test_the_cache_is_not_part_of_the_value(self, t):
        values = tuple(getattr(t, f.name) for f in dataclasses.fields(t))
        twin = type(t)(*values)
        free_vars(t)
        assert t == twin and hash(t) == hash(twin) == hash(values)
        assert repr(t) == f"{type(t).__name__}(" + ", ".join(
            f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(t), values)
        ) + ")"
        assert not hasattr(t, "__dict__")
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, None)

    def test_a_context_caches_its_field_hash(self, corpus_judgements):
        """A context's hash is computed once, kept on it, and is the hash the
        dataclass gives its fields."""
        contexts = [Ctx()] + [Ctx(ctx.entries) for _, ctx, _ in corpus_judgements]
        assert any(len(ctx) > 3 for ctx in contexts)
        for ctx in contexts:
            assert "_hash" not in vars(ctx)
            assert hash(ctx) == syntax._FIELD_HASH[Ctx](ctx) == hash((ctx.entries,))
            assert vars(ctx)["_hash"] == hash(ctx) == hash(Ctx(ctx.entries))

    def test_fields_are_unchanged(self):
        assert {type(t).__name__: tuple(f.name for f in dataclasses.fields(t))
                for t in ONE_OF_EACH + [SBind("x", NatType(), NatLit(1))]} == {
            "Var": ("name",),
            "Universe": ("level",),
            "NatType": (),
            "NatLit": ("value",),
            "Pi": ("binder", "domain", "codomain"),
            "Lam": ("binder", "domain", "body"),
            "App": ("fn", "arg"),
            "Add": ("lhs", "rhs"),
            "Label": ("label_id", "args"),
            "ESubst": ("subject", "bindings"),
            "SBind": ("name", "domain", "value"),
        }


_ENTRY = LabelEntry(3, (("a", NatType()),), "x", NatType(), Add(Var("a"), Var("x")), NatType())
_DERIVATION = Derivation("var", Ctx((("x", NatType()),)), Var("x"), NatType())

# one object of each class built by `syntax.frozen_slotted`, no field at its default
BUILT_THROUGH_SLOTS = ONE_OF_EACH + [
    SBind("x", NatType(), NatLit(1)),
    Derivation("conv", _DERIVATION.ctx, Var("x"), Universe(0), (_DERIVATION,)),
    _ENTRY,
    LabelCtx((_ENTRY,)),
    CheckResult("round-trip", False, "why"),
]
DEFAULTS = {
    "Label": {"args": ()},
    "Derivation": {"children": ()},
    "CheckResult": {"detail": ""},
    "LabelCtx": {"entries": ()},
}


def test_every_class_built_through_slots_is_under_contract():
    """A class of the package that `frozen_slotted` builds has an object in
    BUILT_THROUGH_SLOTS, so the contract below covers it."""
    built = set()
    for info in pkgutil.iter_modules(defuncc.__path__):
        module = importlib.import_module(f"defuncc.{info.name}")
        for obj in vars(module).values():
            code = getattr(getattr(obj, "__init__", None), "__code__", None)
            if isinstance(obj, type) and code and code.co_filename == "<frozen_slotted>":
                built.add(obj)
    assert built == {type(o) for o in BUILT_THROUGH_SLOTS}


@pytest.mark.parametrize("obj", BUILT_THROUGH_SLOTS, ids=lambda o: type(o).__name__)
def test_built_through_slots_as_the_dataclass_built_it(obj):
    """The slot-setting constructor keeps the dataclass's contract: its
    signature, positional and keyword calls, `replace`, immutability, no
    instance dictionary; and it is this constructor, not the dataclass's."""
    cls, fs = type(obj), dataclasses.fields(obj)
    assert cls.__init__.__code__.co_filename == "<frozen_slotted>"
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fs]
    assert {p.name: p.default for p in params if p.default is not p.empty} == DEFAULTS.get(
        cls.__name__, {}
    )
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    values = [getattr(obj, f.name) for f in fs]
    by_position, by_keyword = cls(*values), cls(**{f.name: v for f, v in zip(fs, values)})
    for twin in (by_position, by_keyword, dataclasses.replace(obj)):
        assert twin is not obj and twin == obj
        assert hash(twin) == hash(obj) and repr(twin) == repr(obj)
    for f in fs:
        other = dataclasses.replace(obj, **{f.name: "other"})
        assert getattr(other, f.name) == "other" and other != obj
        assert dataclasses.replace(other, **{f.name: getattr(obj, f.name)}) == obj
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
    assert not hasattr(obj, "__dict__")
    if cls.__name__ in DEFAULTS:
        assert cls(*values[:-1]) == dataclasses.replace(obj, **DEFAULTS[cls.__name__])


# ---------------------------------------------------------------------------
# The walks over the binding table against the hand-written walks they replaced


def reference_alpha_eq(a, b, enva=None, envb=None, depth=0) -> bool:
    enva, envb = enva or {}, envb or {}
    match a, b:
        case Var(x), Var(y):
            if x in enva or y in envb:
                return enva.get(x) == envb.get(y) and enva.get(x) is not None
            return x == y
        case (Universe(), Universe()) | (NatType(), NatType()) | (NatLit(), NatLit()):
            return a == b
        case (Pi(x, a1, b1), Pi(y, a2, b2)) | (Lam(x, a1, b1), Lam(y, a2, b2)):
            return reference_alpha_eq(a1, a2, enva, envb, depth) and reference_alpha_eq(
                b1, b2, {**enva, x: depth}, {**envb, y: depth}, depth + 1
            )
        case (App(f1, x1), App(f2, x2)) | (Add(f1, x1), Add(f2, x2)):
            return reference_alpha_eq(f1, f2, enva, envb, depth) and reference_alpha_eq(
                x1, x2, enva, envb, depth
            )
        case Label(i, args1), Label(j, args2):
            return (
                i == j
                and len(args1) == len(args2)
                and all(reference_alpha_eq(p, q, enva, envb, depth) for p, q in zip(args1, args2))
            )
        case ESubst(m1, bs1), ESubst(m2, bs2):
            if len(bs1) != len(bs2):
                return False
            ea, eb, d = enva, envb, depth
            for sb1, sb2 in zip(bs1, bs2):
                if not reference_alpha_eq(sb1.domain, sb2.domain, ea, eb, d):
                    return False
                if not reference_alpha_eq(sb1.value, sb2.value, enva, envb, depth):
                    return False
                ea = {**ea, sb1.name: d}
                eb = {**eb, sb2.name: d}
                d += 1
            return reference_alpha_eq(m1, m2, ea, eb, d)
        case _:
            return False


def reference_canon(t, env=None, depth=0):
    env = env or {}

    def go(t, env, depth):
        match t:
            case Var(name):
                if name in env:
                    return ("b", env[name])
                return ("f", name)
            case Universe() | NatType() | NatLit():
                return t
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


def _reference_narrow(mapping, t):
    fv = free_vars(t)
    return {k: v for k, v in mapping.items() if k in fv}


def _reference_under_binder(binder, body, mapping):
    inner = {k: v for k, v in mapping.items() if k != binder}
    inner = _reference_narrow(inner, body)
    if not inner:
        return binder, body
    clash = any(binder in free_vars(v) for v in inner.values())
    if clash:
        avoid = set().union(*(free_var_set(v) for v in inner.values()))
        avoid |= free_var_set(body)
        avoid |= set(inner)
        fresh = fresh_name(binder, avoid)
        body = reference_subst(body, {binder: Var(fresh)})
        binder = fresh
    return binder, reference_subst(body, inner)


def _reference_subst_suspension(bindings, subject, mapping):
    vals2 = [reference_subst(sb.value, mapping) for sb in bindings]
    binds = list(bindings)
    subj = subject
    out = []
    inner = dict(mapping)
    for i, _ in enumerate(binds):
        sb = binds[i]
        dom2 = reference_subst(sb.domain, inner)
        name = sb.name
        nxt = {k: v for k, v in inner.items() if k != name}
        if any(name in free_vars(v) for v in nxt.values()):
            avoid = set().union(*(free_var_set(v) for v in nxt.values())) | set(nxt)
            name, subj = reference_rename_binding(binds, i, subj, avoid)
        out.append(SBind(name, dom2, vals2[i]))
        inner = nxt
    return tuple(out), reference_subst(subj, inner)


def reference_rename_binding(binds, i, subj, avoid):
    name = binds[i].name
    avoid = avoid | free_var_set(subj) | {name}
    for later in binds[i + 1 :]:
        avoid |= free_var_set(later.domain) | {later.name}
    fresh = fresh_name(name, avoid)
    for j in range(i + 1, len(binds)):
        later = binds[j]
        binds[j] = SBind(later.name, reference_subst(later.domain, {name: Var(fresh)}), later.value)
    return fresh, reference_subst(subj, {name: Var(fresh)})


def reference_subst(t, mapping):
    mapping = _reference_narrow(mapping, t)
    if not mapping:
        return t
    match t:
        case Var(name):
            return mapping.get(name, t)
        case Pi(binder, domain, body) | Lam(binder, domain, body):
            domain2 = reference_subst(domain, mapping)
            binder2, body2 = _reference_under_binder(binder, body, mapping)
            return type(t)(binder2, domain2, body2)
        case ESubst(subject, bindings):
            bindings2, subject2 = _reference_subst_suspension(bindings, subject, mapping)
            return ESubst(subject2, bindings2)
    return map_children(lambda c: reference_subst(c, mapping), t)


def reference_freshen(ctx_names, x, body):
    """The binder rename typing did before `freshen_binder`."""
    x2 = fresh_name(x, set(ctx_names) | free_var_set(body))
    return x2, reference_subst(body, {x: Var(x2)})


def _subterms(*roots) -> list:
    """Every distinct subterm of the roots, in a fixed order."""
    seen, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen[t] = None
            stack.extend(children(t))
    return list(seen)


def _binder_names(t) -> list[str]:
    return list(dict.fromkeys(
        x for s in _subterms(t) for x in (
            (s.binder,) if isinstance(s, (Pi, Lam))
            else tuple(sb.name for sb in s.bindings) if isinstance(s, ESubst) else ()
        )
    ))


def _capturing_mappings(t) -> list[dict]:
    """Substitutions for t's free names whose values mention names t binds,
    so that the binders under which they land must be renamed, plus a swap of
    free names and an entry for a name t only binds."""
    fv, bound = free_vars(t), _binder_names(t)
    out = []
    if fv and bound:
        out.append({v: Var(bound[0]) for v in fv})
        out.append({fv[0]: App(Var(bound[-1]), Var(fv[-1])), bound[0]: NatLit(1)})
        out.append({v: Add(Var(b), Var(v)) for v, b in zip(fv, reversed(bound))})
    if len(fv) > 1:
        out.append({fv[0]: Var(fv[1]), fv[1]: Var(fv[0])})
    return out


def assert_walks_match_references(terms) -> None:
    """free_vars, alpha_eq, canon, substitution and binder renaming agree with
    the hand-written walks on every subterm of terms."""
    subterms = _subterms(*terms)
    keys = []
    for s in subterms:
        env = {x: i for i, x in enumerate(free_vars(s)[::2])}
        keys.append((reference_canon(s), canon(s)))
        depth = len(env)  # keys are compared only under the same scopes, so at one depth
        keys.append(((reference_canon(s, env, depth), depth), (canon(s, env, depth), depth)))
    # the new keys identify exactly the terms the old keys identified
    assert len({r for r, _ in keys}) == len({n for _, n in keys}) == len(set(keys))

    by_shape = sorted(subterms, key=lambda s: repr(reference_canon(s)))
    for s, t in zip(by_shape, by_shape[1:] + by_shape[:1]):
        assert alpha_eq(s, t) == reference_alpha_eq(s, t), (s, t)
        assert alpha_eq(s, s) and reference_alpha_eq(s, s)
    for s in subterms:  # one node against itself, its free names bound alike or not
        fv = free_vars(s)
        levels = {x: i for i, x in enumerate(fv)}
        for other in (levels, {x: i for i, x in enumerate(fv[::-1])}, {}):
            args = (s, s, levels, other, len(fv))
            assert syntax._aeq(*args) == reference_alpha_eq(*args), (s, other)

    for s in subterms:
        plain = not any(isinstance(x, ESubst) for x in _subterms(s))
        for mapping in _capturing_mappings(s):
            got, want = subst_many(s, mapping), reference_subst(s, mapping)
            assert got == want if plain else reference_alpha_eq(got, want), (s, mapping)
        if isinstance(s, (Pi, Lam)):
            ctx_names = (s.binder, *free_vars(s), s.binder + "'")
            x2, body2 = reference_freshen(ctx_names, s.binder, children(s)[1])
            assert freshen_binder(s, 0, ctx_names) == type(s)(x2, s.domain, body2)
        if isinstance(s, ESubst):
            names = [sb.name for sb in s.bindings]
            for i in range(len(names)):
                avoid = {*free_vars(s), names[i], names[i] + "'"}
                got = freshen_binder(s, i, avoid)
                new = got.bindings[i].name
                assert new not in avoid and new not in names
                assert reference_alpha_eq(got, s)
                binds = list(s.bindings)
                fresh, subj = reference_rename_binding(binds, i, s.subject, avoid)
                if fresh not in names[:i]:  # the old rename could reuse an earlier name
                    binds[i] = SBind(fresh, binds[i].domain, binds[i].value)
                    assert got == ESubst(subj, tuple(binds))


class TestBindingWalks:
    def test_freshen_binder_renames_only_where_the_binder_binds(self):
        # the domain's x is a free name from outside
        assert freshen_binder(Pi("x", Var("x"), Var("x")), 0, ()) == Pi("x'", Var("x"), Var("x'"))
        t = ESubst(App(Var("x"), Var("y")), (
            SBind("x", Var("x"), Var("x")), SBind("y", Var("x"), Var("x")),
        ))
        assert freshen_binder(t, 0, ()) == ESubst(App(Var("x'"), Var("y")), (
            SBind("x'", Var("x"), Var("x")), SBind("y", Var("x'"), Var("x")),
        ))

    def test_freshen_binder_avoids_the_other_binders(self):
        t = ESubst(Var("x"), (SBind("x", NatType(), NatLit(0)), SBind("x'", NatType(), NatLit(1))))
        out = freshen_binder(t, 0, {"x"})
        assert [sb.name for sb in out.bindings] == ["x''", "x'"]
        assert out.subject == Var("x''")

    def test_suspension_values_see_only_the_outer_scope(self):
        t = ESubst(App(Var("x"), Var("y")), (
            SBind("x", NatType(), Var("n")), SBind("y", Var("x"), Var("x")),
        ))
        assert free_vars(t) == ("n", "x")
        assert subst(t, "x", NatLit(1)) == ESubst(App(Var("x"), Var("y")), (
            SBind("x", NatType(), Var("n")), SBind("y", Var("x"), NatLit(1)),
        ))
        assert canon(t) != canon(ESubst(t.subject, (t.bindings[0], SBind("y", Var("x"), Var("z")))))

    def test_corpus_judgements_and_their_translations(self, corpus_judgements):
        terms = []
        for _, ctx, term in corpus_judgements:
            res = defun(ctx, term)
            terms += [term, *(ty for _, ty in ctx), res.term]
            for e in res.labels:
                terms += [*(a for _, a in e.telescope), e.arg_type, e.body, e.ret_type]
        assert_walks_match_references(terms)

    def test_enumerated_terms(self, enumerated):
        assert len(enumerated) == 2525
        assert_walks_match_references(
            [t for ctx, term in enumerated for t in (term, *(ty for _, ty in ctx))]
        )

    def test_sigma_states_of_diagram_traces(self, corpus_judgements, scaling):
        _, twice = scaling("twice", 2)
        states = []
        for term in [twice] + [term for _, _, term in corpus_judgements]:
            assert uses_only(term, CC_TERMS)
            states += ccs_reduce_trace(term)
        assert any(isinstance(s, ESubst) for s in _subterms(*states))
        assert_walks_match_references(states)

    def test_a_key_independent_of_env_is_kept_on_the_node(self):
        """Bound names are keyed by de Bruijn index, so a subterm none of whose
        free names env binds has one key at every depth, kept on the node."""

        def inner():
            return Pi("z", NatType(), App(Var("f"), Var("z")))

        s = inner()
        t = Lam("x", NatType(), Pi("y", Var("x"), s))
        key = canon(t)  # walks s under x and y, which bind none of its free names
        kept = key[-1][-1]
        assert canon(s) is kept and canon(s, {"x": 0, "y": 1}, 2) is kept
        assert s._canon is kept
        # the same key as a fresh copy's, computed in place at another depth
        deeper = canon(Lam("a", NatType(), Lam("b", NatType(), Lam("c", Var("a"), inner()))))
        assert deeper[-1][-1][-1] == kept
        # a subterm with a name env binds is keyed in place, and not kept
        u = App(Var("x"), Var("f"))
        assert canon(Lam("x", NatType(), u))[-1] == ("App", None, ("b", 0), ("f", "f"))
        assert not hasattr(u, "_canon")

    def test_substitution_renames_only_binders_it_would_capture_under(self):
        # y occurs only in the value, outside the scope of the suspension's x
        t = ESubst(Var("x"), (SBind("x", NatType(), Var("y")),))
        out = subst(t, "y", Var("x"))
        assert out == ESubst(Var("x"), (SBind("x", NatType(), Var("x")),))
        assert alpha_eq(out, reference_subst(t, {"y": Var("x")}))
        # where it lands under the binder, the binder moves
        t = ESubst(App(Var("x"), Var("y")), (SBind("x", NatType(), Var("y")),))
        out = subst(t, "y", Var("x"))
        (sb,) = out.bindings
        assert sb.name != "x" and out.subject == App(Var(sb.name), Var("x"))


def _nest(depth: int, wrap, core=Var("y")):
    t = core
    for i in range(depth):
        t = wrap(i, t)
    return t


NESTS = {
    "Lam": lambda i, t: Lam(f"x{i}", NatType(), t),
    "Add": lambda i, t: Add(NatLit(1), t),
}


class TestDepth:
    """The walks recurse through themselves only, one frame per level; a walk
    that recursed through a generator or a comprehension would spend two."""

    @pytest.mark.parametrize("kind", NESTS)
    def test_free_vars_alpha_eq_and_canon_900_deep(self, kind):
        a, b = _nest(900, NESTS[kind]), _nest(900, NESTS[kind])
        assert free_vars(a) == ("y",)
        assert alpha_eq(a, b)
        assert canon(a) == canon(b)

    @pytest.mark.parametrize("kind", NESTS)
    def test_hash_1200_deep(self, kind):
        # the hash is cached per node and computed children first from a
        # stack, so no depth reaches the recursion limit
        a, b = _nest(1200, NESTS[kind]), _nest(1200, NESTS[kind])
        assert hash(a) == hash(b)

    def test_subst_many_450_deep(self):
        t = _nest(450, NESTS["Lam"])
        assert alpha_eq(subst_many(t, {"y": NatLit(1)}), _nest(450, NESTS["Lam"], NatLit(1)))
