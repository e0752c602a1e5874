"""The four benchmark workloads: their seeded inputs, what each judgement runs,
and the known answer each verdict is checked against.

A judgement is one unit of closed-loop work: one (ctx, term) carried through
the workload's whole pipeline, or one input file in translate-emit.  Every
call into the program goes through a `Program`, so a tracer can wrap the
benchmark's own calls at the module boundary.

Known answers do not come from the code under test: generated and corpus
programs are well typed by construction, so every check must say ok; ill-typed
files must exit 1 (the documented type-error code); the lambda family has n
lambdas, so it must give n labels with main `l0{}`, and translating back must
print the source text again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ENUM_SIZE_BUDGET = 6
ENUM_COUNT = 2525  # documented size of the size-6 enumeration
VEC_SIZES = range(2, 9)
TWICE_DEPTHS = (1, 2)
LAMBDA_SIZES = tuple(range(20, 61, 10))
TERM_CLASSES = ("Var", "Universe", "Pi", "Lam", "App", "NatType", "NatLit", "Add",
                "Label", "SBind", "ESubst")


@dataclass
class Judgement:
    name: str
    run: Callable[[], Any]
    expect: Callable[[Any], bool]
    family: str = ""  # scaling family, for the growth fit
    size: int = 0
    nodes: int = 0  # syntax nodes in the judgement's input


@dataclass
class Probe:
    """A robustness row: run once per run, outside the timed loop, so a known
    defect stays visible without counting as a failed workload operation."""

    name: str
    run: Callable[[], Any]
    expect: Callable[[Any], bool]


@dataclass
class Inputs:
    judgements: list[Judgement]
    probes: list[Probe] = field(default_factory=list)
    setup_ok: bool = True
    setup_note: str = ""


class Program:
    """The benchmark's entry points into defuncc, resolved from freshly
    imported modules.  Attributes are looked up at call time, so a tracer may
    replace them."""

    def __init__(self, mods: dict[str, Any]):
        self.mods = mods
        h = mods["harness"]
        self.checks = tuple(h.ALL_CHECKS)
        self.cc_check_context = mods["cc"].cc_check_context
        self.cc_infer = mods["cc"].cc_infer
        self.cc_equiv = mods["cc"].cc_equiv
        self.load_file = h.load_file
        self.enumerate_small_terms = h.enumerate_small_terms
        self.cli_main = mods["cli"].main

    def cli(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli_main(list(argv))
        return code, out.getvalue()

    def six_checks(self, ctx, term, *budget: int) -> list:
        return [check(ctx, term, *budget) for check in self.checks]


def count_nodes(*roots: Any, names: tuple[str, ...] = TERM_CLASSES) -> int:
    """Syntax nodes reachable from the roots (terms, contexts, label entries)."""
    count = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if type(obj).__name__ in names:
                count += 1
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return count


def _six_ok(results: list) -> bool:
    return len(results) == 6 and all(r.ok for r in results)


# ---------------------------------------------------------------------------
# corpus-verify


def corpus_verify(prog: Program, rng: random.Random, root: Path, work: Path) -> Inputs:
    """Every source judgement of corpus/*.cc, each with the context check (first
    judgement of a file), its annotation check (definitions) and the six
    checks: the work `defuncc verify corpus` does."""
    h = prog.mods["harness"]
    judgements = []
    for path in sorted((root / "corpus").glob("*.cc")):
        elab = prog.load_file(path)
        annots = {f"def {name}": annot for name, annot, _ in elab.defs}
        for i, (name, ctx, term) in enumerate(h.source_judgements(elab)):
            annot = annots.get(name)
            judgements.append(Judgement(
                name=f"{path.name}:{name}",
                run=_verify_judgement(prog, ctx, term, annot, context_check=i == 0),
                expect=lambda out: all(out[:2]) and _six_ok(out[2]),
                nodes=count_nodes(ctx, term, annot),
            ))
    return Inputs(judgements)


def _verify_judgement(prog: Program, ctx, term, annot, context_check: bool):
    errors = prog.mods["errors"]

    def run():
        ctx_ok = annot_ok = True
        if context_check:
            try:
                prog.cc_check_context(ctx)
            except errors.DefunccError:
                ctx_ok = False
        if annot is not None:
            try:
                d = prog.cc_infer(ctx, term, check_ctx=False)
                prog.cc_infer(ctx, annot, check_ctx=False)
                annot_ok = prog.cc_equiv(d.type, annot)
            except errors.DefunccError:
                annot_ok = False
        return ctx_ok, annot_ok, prog.six_checks(ctx, term)

    return run


# ---------------------------------------------------------------------------
# enum-small


def enum_small(prog: Program, rng: random.Random, root: Path, work: Path) -> Inputs:
    """The size-6 enumeration of small well-typed terms, through the six checks."""
    h = prog.mods["harness"]
    terms = prog.enumerate_small_terms(h.EnumConfig(size_budget=ENUM_SIZE_BUDGET))
    judgements = [
        Judgement(
            name=f"enum-{i}",
            run=(lambda ctx=ctx, term=term: prog.six_checks(ctx, term)),
            expect=_six_ok,
            nodes=count_nodes(ctx, term),
        )
        for i, (ctx, term) in enumerate(terms)
    ]
    ok = len(terms) == ENUM_COUNT
    return Inputs(judgements, setup_ok=ok,
                  setup_note="" if ok else f"enumeration gave {len(terms)}, not {ENUM_COUNT}")


# ---------------------------------------------------------------------------
# diagram-scaling

_TWICE = ("def twice : (A : Type 0) -> (A -> A) -> A -> A :=\n"
          "  fun (A : Type 0) => fun (f : A -> A) => fun (x : A) => f (f x);\n")


def vec_program(n: int, base: int) -> str:
    """`cons (base+n-1) (... (cons base nil))`: a length-n vector whose index
    type computes with add; well typed for every base."""
    body = "nil"
    for i in range(n):
        body = f"cons {base + i} ({body})"
    return (f"axiom V : Nat -> Type 0;\naxiom nil : V {base};\n"
            f"axiom cons : (n : Nat) -> V n -> V (add n 1);\n{body}\n")


def twice_program(k: int, step: int, start: int) -> str:
    """The polymorphic twice nested k times, applied to `start`."""
    f = f"(fun (n : Nat) => add n {step})"
    for _ in range(k):
        f = f"(twice Nat {f})"
    return f"{_TWICE}{f} {start}\n"


def diagram_scaling(prog: Program, rng: random.Random, root: Path, work: Path) -> Inputs:
    """Vec chains and nested twice, each main term through the six checks; the
    seed varies only literals.  The commuting-diagram check dominates."""
    surface = prog.mods["surface"]
    programs = [("vec", n, vec_program(n, rng.randrange(100))) for n in VEC_SIZES]
    programs += [("twice", k, twice_program(k, rng.randrange(1, 10), rng.randrange(100)))
                 for k in TWICE_DEPTHS]
    judgements = []
    for family, size, text in programs:
        elab = surface.parse_source(text).elaborate()
        ctx, term = elab.ctx, elab.main
        judgements.append(Judgement(
            name=f"{family}-{size}",
            run=(lambda ctx=ctx, term=term: prog.six_checks(ctx, term)),
            expect=_six_ok,
            family=family,
            size=size,
            nodes=count_nodes(ctx, term),
        ))
    # Vec n=10 under the public budget argument: the check may run out of
    # budget, but running out must read "inconclusive", never FAIL.
    vec10 = surface.parse_source(vec_program(10, rng.randrange(100))).elaborate()
    probe = Probe(
        name="vec-10 budget=10000: ok or inconclusive, never FAIL",
        run=lambda: prog.six_checks(vec10.ctx, vec10.main, 10_000),
        expect=lambda results: all(r.ok or "inconclusive" in r.line() for r in results),
    )
    return Inputs(judgements, probes=[probe])


# ---------------------------------------------------------------------------
# translate-emit


def lambda_program(n: int, x: str) -> str:
    binders = "".join(f"fun ({x}{i} : Nat) => " for i in range(1, n + 1))
    return f"{binders}add {x}1 {x}{n}"


def translate_emit(prog: Program, rng: random.Random, root: Path, work: Path) -> Inputs:
    """Files through the CLI: defun as text and as JSON, checkdcc on the emitted
    text, refun; ill-typed files must be rejected with exit 1."""
    judgements = []
    for path in sorted((root / "corpus").glob("*.cc")):
        elab = prog.load_file(path)
        judgements.append(Judgement(
            name=path.name,
            run=_emit_pipeline(prog, path, work),
            expect=_round_trips_to(prog, elab.main, len(elab.ctx)),
            nodes=count_nodes(elab.ctx, elab.defs, elab.main),
        ))
    x = rng.choice("xyzuvw")
    for n in LAMBDA_SIZES:
        text = lambda_program(n, x)
        path = work / f"lambdas-{n}.cc"
        path.write_text(text + "\n")
        judgements.append(Judgement(
            name=path.name,
            run=_emit_pipeline(prog, path, work),
            expect=_lambda_answer(n, text),
            family="lams",
            size=n,
            nodes=count_nodes(prog.load_file(path).main),
        ))
    for path in sorted((root / "corpus" / "bad").iterdir()):
        commands = (("defun", "--emit", "text"), ("defun", "--emit", "json")) \
            if path.suffix == ".cc" else (("checkdcc",), ("refun",))
        elab = prog.load_file(path)
        judgements.append(Judgement(
            name=f"bad/{path.name}",
            run=(lambda p=path, cmds=commands: [prog.cli(*cmd, str(p))[0] for cmd in cmds]),
            expect=lambda codes: codes == [1, 1],
            nodes=count_nodes(elab.ctx, elab.labels, elab.main),
        ))
    probes = []
    dup = work / "duplicate-axiom.cc"
    dup.write_text("axiom A : Type 0;\naxiom A : Type 0;\nA\n")
    probes.append(Probe(
        name="duplicate axiom: exit 1 or 2",
        run=lambda: prog.cli("check", str(dup))[0],
        expect=lambda code: code in (1, 2),
    ))
    deep = work / "deep-add.cc"
    deep.write_text("add 1 (" * 1200 + "0" + ")" * 1200 + "\n")
    probes.append(Probe(
        name="add nested 1200 deep: Nat, or a documented exit code",
        run=lambda: prog.cli("check", str(deep)),
        expect=lambda res: res in ((0, "Nat\n"),) or res[0] in (1, 2, 3),
    ))
    return Inputs(judgements, probes=probes)


def _emit_pipeline(prog: Program, path: Path, work: Path):
    dcc_path = work / (path.stem + ".dcc")

    def run():
        code_text, text = prog.cli("defun", "--emit", "text", str(path))
        code_json, doc = prog.cli("defun", "--emit", "json", str(path))
        dcc_path.write_text(text)
        code_check, checked = prog.cli("checkdcc", str(dcc_path))
        code_back, back = prog.cli("refun", str(dcc_path))
        return (code_text, code_json, code_check, code_back), text, doc, checked, back

    return run


def _emitted_ok(codes, text: str, doc: str, checked: str) -> tuple[bool, int]:
    labels = sum(line.startswith("label ") for line in text.splitlines())
    ok = (codes == (0, 0, 0, 0)
          and len(json.loads(doc)["labels"]) == labels
          and checked.splitlines()[:1] == ["label context: ok"])
    return ok, labels


def _round_trips_to(prog: Program, main, ctx_len: int):
    surface, syntax = prog.mods["surface"], prog.mods["syntax"]

    def expect(out) -> bool:
        codes, text, doc, checked, back = out
        ok, _ = _emitted_ok(codes, text, doc, checked)
        lines = back.splitlines()
        return (ok and len(lines) == ctx_len + 1
                and syntax.alpha_eq(surface.parse_term(lines[-1]), main))

    return expect


def _lambda_answer(n: int, source: str):
    def expect(out) -> bool:
        codes, text, doc, checked, back = out
        ok, labels = _emitted_ok(codes, text, doc, checked)
        return ok and labels == n and text.split()[-1] == "l0{}" and back == source + "\n"

    return expect


WORKLOADS: dict[str, Callable[..., Inputs]] = {
    "corpus-verify": corpus_verify,
    "enum-small": enum_small,
    "diagram-scaling": diagram_scaling,
    "translate-emit": translate_emit,
}
