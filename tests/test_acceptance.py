"""Acceptance gate: seven criteria, one pass/fail line each.

Every test prints `criterion N (...): PASS|FAIL [elapsed]` and enforces a
wall-clock bound, so the suite doubles as a progress report when run with
`pytest -v` (node ids) or `-s` (printed lines).
"""

import subprocess
import sys
import time
from pathlib import Path

from defuncc.cc import cc_infer, cc_normalize
from defuncc.cli import main as cli_main
from defuncc.defun import defun
from defuncc.harness import (
    ALL_CHECKS,
    check_reduction_preservation,
    check_round_trip,
    check_type_preservation,
    check_type_safety,
)
from defuncc.sigma import Judgement, check_diagram
from defuncc.surface import parse_dcc, parse_term
from defuncc.syntax import (
    Add,
    App,
    Label,
    LabelCtx,
    Lam,
    NatLit,
    NatType,
    Pi,
    Term,
    Var,
    alpha_eq,
    entry_alpha_eq,
)

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_ENUMERATED = 2525

# Reference translation of the dependent compose program, written out
# independently of the implementation (binder names deliberately differ so
# the comparison below really is up to renaming).
DEPENDENT_COMPOSE_REFERENCE = """
label l5 {A : Type 0, B : A -> Type 0, C : (x : A) -> (B x) -> Type 0,
          f : (x : A) -> (y : B x) -> C x y, g : (x : A) -> B x}
    (x : A) -> C x (g x) := f x (g x);
label l4 {A : Type 0, B : A -> Type 0, C : (x : A) -> (B x) -> Type 0,
          f : (x : A) -> (y : B x) -> C x y}
    (g : (x : A) -> B x) -> (x : A) -> C x (g x) := l5{A, B, C, f, g};
label l3 {A : Type 0, B : A -> Type 0, C : (x : A) -> (B x) -> Type 0}
    (f : (x : A) -> (y : B x) -> C x y) -> (g : (x : A) -> B x) ->
    (x : A) -> C x (g x) := l4{A, B, C, f};
label l2 {A : Type 0, B : A -> Type 0}
    (C : (x : A) -> (B x) -> Type 0) -> ((x : A) -> (y : B x) -> C x y) ->
    (g : (x : A) -> B x) -> (x : A) -> C x (g x) := l3{A, B, C};
label l1 {A : Type 0}
    (B : A -> Type 0) -> (C : (x : A) -> (B x) -> Type 0) ->
    ((x : A) -> (y : B x) -> C x y) -> (g : (x : A) -> B x) ->
    (x : A) -> C x (g x) := l2{A, B};
label l0 {}
    (A : Type 0) -> (B : A -> Type 0) -> (C : (x : A) -> (B x) -> Type 0) ->
    ((x : A) -> (y : B x) -> C x y) -> (g : (x : A) -> B x) ->
    (x : A) -> C x (g x) := l1{A};
l0{}
"""


def _report(gate: str, title: str, ok: bool, started: float, bound: float,
            detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    extra = f" - {detail}" if detail else ""
    print(f"{gate} ({title}): {status} [{elapsed:.2f}s]{extra}")
    assert ok, f"{gate}: {detail}"
    assert elapsed < bound, (
        f"{gate} exceeded its {bound:.0f}s bound: {elapsed:.2f}s"
    )


def _map_label_ids(t: Term, mapping: dict[int, int]) -> Term:
    match t:
        case Label(label_id=i, args=args):
            return Label(mapping[i], tuple(_map_label_ids(a, mapping)
                                           for a in args))
        case Pi(binder=x, domain=d, codomain=c):
            return Pi(x, _map_label_ids(d, mapping), _map_label_ids(c, mapping))
        case Lam(binder=x, domain=d, body=b):
            return Lam(x, _map_label_ids(d, mapping), _map_label_ids(b, mapping))
        case App(fn=f, arg=a):
            return App(_map_label_ids(f, mapping), _map_label_ids(a, mapping))
        case Add(lhs=a, rhs=b):
            return Add(_map_label_ids(a, mapping), _map_label_ids(b, mapping))
        case _:
            return t


def _matches_up_to_renumbering(mine: LabelCtx, mine_term: Term,
                               ref: LabelCtx, ref_term: Term) -> bool:
    """Compare label contexts under the id bijection induced by closure
    sizes (all distinct here), tolerating binder renaming via alpha."""
    if len(mine.entries) != len(ref.entries):
        return False
    size_to_mine = {len(e.telescope): e for e in mine.entries}
    size_to_ref = {len(e.telescope): e for e in ref.entries}
    if set(size_to_mine) != set(size_to_ref):
        return False
    mapping = {
        size_to_mine[s].label_id: size_to_ref[s].label_id for s in size_to_mine
    }
    for e in mine.entries:
        other = size_to_ref[len(e.telescope)]
        mapped = type(e)(
            label_id=mapping[e.label_id],
            telescope=tuple(
                (n, _map_label_ids(ty, mapping)) for n, ty in e.telescope
            ),
            arg_name=e.arg_name,
            arg_type=_map_label_ids(e.arg_type, mapping),
            body=_map_label_ids(e.body, mapping),
            ret_type=_map_label_ids(e.ret_type, mapping),
        )
        if not entry_alpha_eq(mapped, other):
            return False
    return alpha_eq(_map_label_ids(mine_term, mapping), ref_term)


def test_criterion_1_dependent_compose_golden_translation(elaborated):
    started = time.perf_counter()
    elab = elaborated("compose_dependent")
    result = defun(elab.ctx, elab.main)
    ref = parse_dcc(DEPENDENT_COMPOSE_REFERENCE)
    closures = [
        [n for n, _ in e.telescope]
        for e in sorted(result.defs.entries, key=lambda e: e.label_id)
    ]
    ok = (
        result.term == Label(0, ())
        and len(result.defs.entries) == 6
        and closures
        == [
            [],
            ["A"],
            ["A", "B"],
            ["A", "B", "C"],
            ["A", "B", "C", "f"],
            ["A", "B", "C", "f", "g"],
        ]
        and _matches_up_to_renumbering(
            result.defs, result.term, ref.labels, ref.main
        )
    )
    _report("criterion 1", "dependent compose golden translation", ok, started, 1.0,
            "six labels with telescoping closures, term l0{}")


def test_criterion_2_simply_typed_compose_translation(elaborated):
    started = time.perf_counter()
    elab = elaborated("compose_simply_typed")
    result = defun(elab.ctx, elab.main)
    entries = {e.label_id: e for e in result.defs.entries}
    ok = (
        len(entries) == 3
        and result.term == Label(0, (Var("B"), Var("C"), Var("A")))
        and alpha_eq(entries[2].body, parse_term("f (g x)"))
        and [n for n, _ in entries[0].telescope] == ["B", "C", "A"]
        and [n for n, _ in entries[2].telescope]
        == ["B", "C", "A", "f", "g"]
    )
    _report("criterion 2", "simply typed compose translation", ok, started, 1.0,
            "three labels, innermost body f (g x)")


def test_criterion_3_type_preservation(corpus_judgements, enumerated):
    started = time.perf_counter()
    assert len({name.split(":")[0] for name, _, _ in corpus_judgements}) >= 20
    assert len(enumerated) == EXPECTED_ENUMERATED
    failures = []
    for name, ctx, term in corpus_judgements:
        r = check_type_preservation(ctx, term)
        if not r.ok:
            failures.append(f"{name}: {r.detail}")
    for i, (ctx, term) in enumerate(enumerated):
        r = check_type_preservation(ctx, term)
        if not r.ok:
            failures.append(f"enumerated[{i}]: {r.detail}")
    _report(
        "criterion 3", "type preservation", not failures, started, 60.0,
        f"{len(corpus_judgements)} corpus + {len(enumerated)} enumerated "
        f"judgements" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_4_reduction_preservation(corpus_judgements, elaborated):
    started = time.perf_counter()
    failures = []
    for name, ctx, term in corpus_judgements:
        r = check_reduction_preservation(ctx, term)
        if not r.ok:
            failures.append(f"{name}: {r.detail}")
    # A function-indexed family: the normalized type must contain the
    # composed successor lambda, not a stuck redex.
    elab = elaborated("typelevel_nat")
    ty = cc_infer(elab.ctx, elab.main).type
    want = App(
        Var("A"),
        Lam("n", NatType(), Add(NatLit(1), Add(NatLit(1), Var("n")))),
    )
    if not alpha_eq(cc_normalize(ty), want):
        failures.append("type-level normal form mismatch")
    _report(
        "criterion 4", "reduction preservation", not failures, started, 30.0,
        f"{len(corpus_judgements)} judgements, normal forms agree"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_5_commuting_diagram(corpus_judgements, elaborated):
    started = time.perf_counter()
    failures = []
    total_subst = 0
    for name, ctx, term in corpus_judgements:
        report = check_diagram(Judgement(ctx, term), raise_on_failure=False)
        total_subst += report.subst_nodes
        if not report.ok:
            bad = [e.name for e in report.edges if not e.ok]
            failures.append(f"{name}: {bad}")
    elab = elaborated("typelevel_nat")
    focused = check_diagram(Judgement(elab.ctx, elab.main), raise_on_failure=False)
    ok = not failures and focused.ok and focused.subst_nodes > 0
    _report(
        "criterion 5", "machine and translation commute", ok, started, 60.0,
        f"{len(corpus_judgements)} traces, {total_subst} suspension "
        f"translations" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_6_round_trip(corpus_judgements, enumerated):
    started = time.perf_counter()
    failures = []
    for name, ctx, term in corpus_judgements:
        r = check_round_trip(ctx, term)
        if not r.ok:
            failures.append(f"{name}: {r.detail}")
    for i, (ctx, term) in enumerate(enumerated):
        r = check_round_trip(ctx, term)
        if not r.ok:
            failures.append(f"enumerated[{i}]: {r.detail}")
    _report(
        "criterion 6", "round trip returns to the source", not failures, started, 60.0,
        f"{len(corpus_judgements)} corpus + {len(enumerated)} enumerated "
        f"judgements" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_7_type_safety_and_rejection(corpus_judgements,
                                               bad_dcc_paths):
    started = time.perf_counter()
    failures = []
    for name, ctx, term in corpus_judgements:
        r = check_type_safety(ctx, term)
        if not r.ok:
            failures.append(f"{name}: {r.detail}")
    for path in bad_dcc_paths:
        code = cli_main(["checkdcc", str(path)])
        if code != 1:
            failures.append(f"{path.name}: exit {code}, wanted 1")
    illtyped = ROOT / "corpus" / "bad" / "illtyped.cc"
    code = cli_main(["check", str(illtyped)])
    if code != 1:
        failures.append(f"illtyped.cc: exit {code}, wanted 1")
    proc = subprocess.run(
        [sys.executable, "-m", "defuncc.cli", "checkdcc",
         str(bad_dcc_paths[0])],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if proc.returncode != 1:
        failures.append(f"subprocess exit {proc.returncode}, wanted 1")
    _report(
        "criterion 7", "translated programs run; ill-typed inputs are rejected",
        not failures, started, 30.0,
        f"{len(corpus_judgements)} safety checks, "
        f"{len(bad_dcc_paths) + 1} rejections"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_scaling_families_pass_every_check(scaling):
    """The six checks hold beyond the corpus: Vec chains of length 20 and 40
    and twice nested three, five and six deep, at the default budget."""
    started = time.perf_counter()
    failures = []
    sizes = [("vec", 20), ("vec", 40), ("twice", 3), ("twice", 5), ("twice", 6)]
    for family, size in sizes:
        ctx, term = scaling(family, size)
        for check in ALL_CHECKS:
            r = check(ctx, term)
            if not r.ok:
                failures.append(f"{family} {size}: {r.line()}")
    _report(
        "scaling", "larger inputs pass every check", not failures, started, 20.0,
        f"{len(sizes)} programs x {len(ALL_CHECKS)} checks"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
