#!/usr/bin/env python3
"""Fingerprint the six checks and the commuting-diagram report.

Usage: PYTHONPATH=src python scripts/fingerprint.py [corpus] [vec] [twice] [enum] [emit]

For every judgement of the chosen judgement parts and every budget in
BUDGETS, prints one line: the judgement's name, the budget, the six ok/FAIL
flags in `ALL_CHECKS` order, and a hash of the six `CheckResult`s together
with the `DiagramReport` of a fresh judgement (its `subst_nodes` zeroed:
that count says how the translation was organised, not what it found).  A
report that raises is hashed as its error.

The judgement parts are the corpus judgements, Vec chains n=2..12, nested
`twice` k=1..3 and the 2,525 enumerated judgements.  The `emit` part runs
the CLI in this process instead, as the translate-emit pipeline does: on
each corpus file and each nested-lambda chain n=20..60, `defun --emit text`
and `defun --emit json`, then `checkdcc` and `refun` on the emitted text;
on each file of `corpus/bad`, the two `defun` commands for a `.cc` file and
`checkdcc` and `refun` for a `.dcc` file.  It prints one line per command:
the file, the command, its exit code and a hash of its stdout and stderr.
All five parts run by default.  Running the script before and after a
refactor and comparing the two outputs with `diff` shows whether any
verdict, detail, diagram edge or emitted byte moved.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from defuncc import cli, harness
from defuncc.errors import DefunccError
from defuncc.harness import ALL_CHECKS, EnumConfig, enumerate_small_terms, load_file
from defuncc.kernel import DEFAULT_BUDGET
from defuncc.sigma import Judgement, check_diagram
from defuncc.surface import parse_source
from scaling import lambda_source, twice_source, vec_source  # the sibling script's families

ROOT = Path(__file__).resolve().parent.parent
BUDGETS = (DEFAULT_BUDGET, 3, 5, 8, 12, 20, 30)


def corpus():
    for path in sorted((ROOT / "corpus").glob("*.cc")):
        for name, ctx, term in harness.source_judgements(load_file(path)):
            yield f"{path.name}:{name}", ctx, term


def family(label, source, sizes):
    def judgements():
        for n in sizes:
            elab = parse_source(source(n)).elaborate()
            yield f"{label}{n}", elab.ctx, elab.main

    return judgements


def enumerated():
    for i, (ctx, term) in enumerate(enumerate_small_terms(EnumConfig(size_budget=6))):
        yield f"enum{i}", ctx, term


DEFUN_COMMANDS = (("defun", "--emit", "text"), ("defun", "--emit", "json"))
DCC_COMMANDS = (("checkdcc",), ("refun",))


def emit_line(name: str, command: tuple[str, ...], path: Path) -> tuple[str, str]:
    """The fingerprint line of one CLI command, and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, str(path)])
    digest = hashlib.sha256(repr((out.getvalue(), err.getvalue())).encode()).hexdigest()
    return f"{name} {' '.join(command)}: exit {code} {digest[:16]}", out.getvalue()


def emit_lines():
    """The `emit` part: one line per CLI command (see the module docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sources = [(p.name, p) for p in sorted((ROOT / "corpus").glob("*.cc"))]
        for n in range(20, 61, 10):
            path = work / f"lambdas-{n}.cc"
            path.write_text(lambda_source(n))
            sources.append((path.name, path))
        dcc = work / "emitted.dcc"
        for name, path in sources:
            text_line, text = emit_line(name, DEFUN_COMMANDS[0], path)
            yield text_line
            yield emit_line(name, DEFUN_COMMANDS[1], path)[0]
            dcc.write_text(text)
            for command in DCC_COMMANDS:
                yield emit_line(name, command, dcc)[0]
        for path in sorted((ROOT / "corpus" / "bad").iterdir()):
            commands = DEFUN_COMMANDS if path.suffix == ".cc" else DCC_COMMANDS
            for command in commands:
                yield emit_line(f"bad/{path.name}", command, path)[0]


def judgement_lines(judgements):
    def lines():
        for name, ctx, term in judgements():
            for budget in BUDGETS:
                yield fingerprint(name, ctx, term, budget)

    return lines


PARTS = {
    "corpus": judgement_lines(corpus),
    "vec": judgement_lines(family("vec", vec_source, range(2, 13))),
    "twice": judgement_lines(family("twice", twice_source, range(1, 4))),
    "enum": judgement_lines(enumerated),
    "emit": emit_lines,
}


def report(ctx, term, budget):
    try:
        r = check_diagram(Judgement(ctx, term, budget), raise_on_failure=False)
    except DefunccError as exc:
        return f"{type(exc).__name__}: {exc}"
    return dataclasses.replace(r, subst_nodes=0)


def fingerprint(name, ctx, term, budget) -> str:
    results = tuple(check(ctx, term, budget) for check in ALL_CHECKS)
    digest = hashlib.sha256(repr((results, report(ctx, term, budget))).encode()).hexdigest()
    flags = " ".join("ok" if r.ok else "FAIL" for r in results)
    return f"{name} @{budget}: {flags} {digest[:16]}"


def main(argv: list[str]) -> int:
    unknown = [p for p in argv if p not in PARTS]
    if unknown:
        print(f"unknown part(s) {unknown}; choose from {list(PARTS)}", file=sys.stderr)
        return 2
    for part in argv or PARTS:
        for line in PARTS[part]():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
