#!/usr/bin/env python3
"""Fingerprint the six checks and the commuting-diagram report.

Usage: PYTHONPATH=src python scripts/fingerprint.py [corpus] [vec] [twice] [enum]

For every judgement of the chosen parts (all four by default) and every
budget in BUDGETS, prints one line: the judgement's name, the budget, the
six ok/FAIL flags in `ALL_CHECKS` order, and a hash of the six
`CheckResult`s together with the `DiagramReport` of a fresh judgement (its
`subst_nodes` zeroed: that count says how the translation was organised, not
what it found).  A report that raises is hashed as its error.

The parts are the corpus judgements, Vec chains n=2..12, nested `twice`
k=1..3 and the 2,525 enumerated judgements.  Running the script before and
after a refactor and comparing the two outputs with `diff` shows whether
any verdict, detail or diagram edge moved.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

from defuncc import harness
from defuncc.errors import DefunccError
from defuncc.harness import ALL_CHECKS, EnumConfig, enumerate_small_terms, load_file
from defuncc.kernel import DEFAULT_BUDGET
from defuncc.sigma import Judgement, check_diagram
from defuncc.surface import parse_source
from scaling import twice_source, vec_source  # the sibling script's families

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


PARTS = {
    "corpus": corpus,
    "vec": family("vec", vec_source, range(2, 13)),
    "twice": family("twice", twice_source, range(1, 4)),
    "enum": enumerated,
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
        for name, ctx, term in PARTS[part]():
            for budget in BUDGETS:
                print(fingerprint(name, ctx, term, budget), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
