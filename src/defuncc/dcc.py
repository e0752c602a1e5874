"""The target calculus: labels in place of lambdas, checked against a label
context, as a description over the shared kernel.

Its head redex is label-beta through the label context, evaluation enters
closure arguments, and labels are the functions the extensionality bridge
unfolds.  Every operation takes the label context first: reduction needs it to
unfold label applications, typing needs it for label lookups, and equivalence
needs it to compare labels by their definitions.  Inference returns only the
type.
"""

from __future__ import annotations

from .errors import (
    ClosureArity,
    ClosureTypeMismatch,
    IllFormedContext,
    UnknownLabel,
)
from .kernel import (
    DEFAULT_BUDGET,
    Budget,
    Calculus,
    Derivation,
    apply_fresh,
    check_context,
    coerce,
    convertible,
    infer,
    infer_type,
    normalize,
)
from .surface import label_name
from .syntax import (
    Add,
    App,
    Ctx,
    Label,
    LabelCtx,
    NatLit,
    NatType,
    Pi,
    Term,
    Universe,
    Var,
    subst_many,
)


def _closure(defs: LabelCtx, label_id: int, args: tuple[Term, ...]):
    """The entry of l{args} and its closure as a substitution, less any x |-> x."""
    e = defs.lookup(label_id)
    if e is None:
        raise UnknownLabel(label_name(label_id))
    if len(args) != e.arity():
        raise ClosureArity(label_name(label_id), e.arity(), len(args))
    return e, {x: v for (x, _), v in zip(e.telescope, args) if not (type(v) is Var and v.name == x)}


def label_beta(defs: LabelCtx, label_id: int, args: tuple[Term, ...], arg: Term) -> Term:
    """Unfold l{args} applied to arg into the entry body, instantiated."""
    e, mapping = _closure(defs, label_id, args)
    mapping[e.arg_name] = arg
    return subst_many(e.body, mapping)


DCC_TERMS = frozenset({Var, Universe, Pi, App, NatType, NatLit, Add, Label})
_ENTERS = frozenset({App, Add, Pi, Label})


def dcc_calculus(defs: LabelCtx, table: dict | None = None) -> Calculus:
    """The target calculus over one label context, with a given table of closed terms."""

    def head(t: Term) -> Term | None:
        match t:
            case App(Label(i, cargs), arg):
                return label_beta(defs, i, cargs, arg)
        return None

    def unfold(calc: Calculus, t: Term, z: str, b: Budget) -> Term | None:
        if isinstance(t, Label) and t.label_id not in defs:
            return None
        return apply_fresh(calc, t, z, b)

    def ty_label(calc: Calculus, ctx: Ctx, t: Label, b: Budget) -> Derivation:
        """Closure arguments are typed one by one against the telescope, each
        telescope type instantiated with the earlier arguments."""
        e, closure = _closure(defs, t.label_id, t.args)
        mapping: dict[str, Term] = {}
        for k, ((xk, ak), mk) in enumerate(zip(e.telescope, t.args)):
            want = subst_many(ak, mapping)
            got = infer(calc, ctx, mk, b).type
            if not convertible(calc, got, want, b):
                raise ClosureTypeMismatch(label_name(t.label_id), k, want, got)
            if xk in closure:
                mapping[xk] = mk
        ty = subst_many(Pi(e.arg_name, e.arg_type, e.ret_type), closure)
        return Derivation("ty-Label", ctx, t, ty)

    return Calculus(
        name="target",
        allowed=DCC_TERMS,
        enters=_ENTERS,
        head=head,
        is_function=lambda t: isinstance(t, Label),
        unfold=unfold,
        rules={Label: ty_label},
        type_only=True,
        table=table,
        closed_table=True,
    )


def dcc_normalize(defs: LabelCtx, t: Term, budget: int = DEFAULT_BUDGET) -> Term:
    return normalize(dcc_calculus(defs), t, Budget(budget))


def dcc_equiv(defs: LabelCtx, a: Term, b: Term, budget: int = DEFAULT_BUDGET) -> bool:
    return convertible(dcc_calculus(defs), a, b, Budget(budget))


def dcc_check(defs: LabelCtx, ctx: Ctx, budget: int = DEFAULT_BUDGET) -> int:
    """Raise unless the label context and type context are well-formed;
    return the steps the check spent.  Context types may mention any label."""
    b = Budget(budget)
    check_labels(defs, b)
    check_context(dcc_calculus(defs), ctx, b)
    return b.used


def check_labels(defs: LabelCtx, b: Budget, start: int = 0) -> None:
    """Raise unless the entries of defs from `start` on are well-formed.

    Each entry is checked under the strictly earlier entries: its telescope
    followed by its argument binder must be a well-formed context, the return
    type must be a type over it, and the body must inhabit the return type.
    The entries' calculi share one table of closed terms: each label context
    extends the previous one with a new id, so a closed term keeps its type.
    """
    seen_ids = {e.label_id for e in defs.entries[:start]}
    table: dict = {}
    for idx in range(start, len(defs)):
        e = defs.entries[idx]
        name = label_name(e.label_id)
        if e.label_id in seen_ids:
            raise IllFormedContext(f"label {name} declared twice")
        seen_ids.add(e.label_id)
        calc = dcc_calculus(LabelCtx(defs.entries[:idx]), table)
        sub = Ctx(e.telescope + ((e.arg_name, e.arg_type),))
        try:
            check_context(calc, sub, b)
        except IllFormedContext as exc:
            raise IllFormedContext(f"closure telescope of {name}: {exc}") from exc
        infer_type(calc, sub, e.ret_type, b)
        coerce(calc, sub, infer(calc, sub, e.body, b), e.ret_type, b, f"body of {name}")


def dcc_infer(defs: LabelCtx, ctx: Ctx, t: Term, budget: int = DEFAULT_BUDGET) -> Term:
    """The type of t under defs and ctx, taking both as well-formed (see
    dcc_check)."""
    return infer(dcc_calculus(defs), ctx, t, Budget(budget)).type
