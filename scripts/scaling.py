#!/usr/bin/env python3
"""Growth curves: CPU seconds against size.

Usage: PYTHONPATH=src python scripts/scaling.py

Prints the line count of `src/defuncc/*.py` (as `wc -l` counts it), so the
curves and the size of the code are read together, then one table for each
of these, each time the best of 3 runs of `time.process_time`:

- `defun` on nested lambdas `fun (x1 : Nat) => ... => add x1 xn`;
- the translate-emit CLI pipeline on the same programs: `defun` as text and
  as JSON, `checkdcc` on the emitted text, `refun`;
- the six metatheory checks on Vec chains and on nested `twice`.

Every run starts from freshly parsed terms, so no cache carries over; the
parse of the library families is not timed.
"""

import contextlib
import io
import tempfile
import time
from pathlib import Path

from defuncc import cli, harness
from defuncc.defun import defun
from defuncc.surface import parse_source

REPEATS = 3
SRC = Path(__file__).resolve().parent.parent / "src" / "defuncc"


def src_lines() -> int:
    """The newlines in src/defuncc/*.py: the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))


def lambda_source(n: int) -> str:
    binders = "".join(f"fun (x{i} : Nat) => " for i in range(1, n + 1))
    return f"{binders}add x1 x{n}\n"


def vec_source(n: int) -> str:
    body = "nil"
    for i in range(n):
        body = f"cons {i} ({body})"
    return (
        "axiom V : Nat -> Type 0;\naxiom nil : V 0;\n"
        f"axiom cons : (n : Nat) -> V n -> V (add n 1);\n{body}\n"
    )


def twice_source(k: int) -> str:
    f = "(fun (n : Nat) => add n 1)"
    for _ in range(k):
        f = f"(twice Nat {f})"
    return (
        "def twice : (A : Type 0) -> (A -> A) -> A -> A :=\n"
        "  fun (A : Type 0) => fun (f : A -> A) => fun (x : A) => f (f x);\n"
        f"{f} 0\n"
    )


def best_cpu(prepare) -> float | None:
    """The least CPU time of REPEATS runs, or None if a run returned False
    (the time of a wrong result means nothing).  Each run is made by
    prepare(), outside the timed region."""
    best = float("inf")
    for _ in range(REPEATS):
        run = prepare()
        start = time.process_time()
        ok = run()
        best = min(best, time.process_time() - start)
        if not ok:
            return None
    return best


def cli_run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def defun_lambdas(n: int, work: Path):
    def prepare():
        elab = parse_source(lambda_source(n)).elaborate()
        return lambda: len(defun(elab.ctx, elab.main).labels) == n

    return prepare


def emit_lambdas(n: int, work: Path):
    src, dcc = work / f"lambdas-{n}.cc", work / f"lambdas-{n}.dcc"
    src.write_text(lambda_source(n))

    def run():
        code_text, text = cli_run("defun", "--emit", "text", str(src))
        code_json, _ = cli_run("defun", "--emit", "json", str(src))
        dcc.write_text(text)
        code_check, _ = cli_run("checkdcc", str(dcc))
        code_back, back = cli_run("refun", str(dcc))
        return (code_text, code_json, code_check, code_back) == (0, 0, 0, 0) and \
            back == src.read_text()

    return lambda: run


def six_checks(source):
    def family(n: int, work: Path):
        def prepare():
            harness._judgement.cache_clear()  # the previous run's translation
            elab = parse_source(source(n)).elaborate()
            return lambda: all(check(elab.ctx, elab.main).ok for check in harness.ALL_CHECKS)

        return prepare

    return family


FAMILIES = [
    ("defun, nested lambdas", defun_lambdas, (20, 40, 80, 160)),
    ("translate-emit CLI, nested lambdas", emit_lambdas, (20, 30, 40, 50, 60)),
    ("six checks, Vec chain", six_checks(vec_source), (10, 20, 40, 80)),
    ("six checks, nested twice", six_checks(twice_source), (1, 2, 3, 4, 5, 6)),
]


def main() -> int:
    failed = False
    print(f"src/defuncc/*.py: {src_lines()} lines\n")
    with tempfile.TemporaryDirectory() as tmp:
        for title, make, sizes in FAMILIES:
            print(f"{title}\n{'n':>5}  {'cpu_s':>8}")
            for n in sizes:
                cpu = best_cpu(make(n, Path(tmp)))
                failed = failed or cpu is None
                print(f"{n:>5}  " + ("  FAILED" if cpu is None else f"{cpu:>8.3f}"), flush=True)
            print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
