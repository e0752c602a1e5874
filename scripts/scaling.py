#!/usr/bin/env python3
"""Growth curves: CPU seconds against size.

Usage: PYTHONPATH=src python scripts/scaling.py

Prints the line count of `src/defuncc/*.py` (as `wc -l` counts it), so the
curves and the size of the code are read together, then one table for each
of these, each time the best of 3 runs:

- `defun` on nested lambdas `fun (x1 : Nat) => ... => add x1 xn`;
- the translate-emit CLI pipeline on the same programs: `defun` as text and
  as JSON, `checkdcc` on the emitted text, `refun`;
- the six metatheory checks on Vec chains, on nested `twice`, on the
  nested lambdas (a wide program: its label context prints n(n+1)/2
  return-type nodes) and on `Add` chains (a long trace: n source steps and
  n σ-steps), with the commuting-diagram report's σ-steps and labels beside
  each time;
- `harness.enumerate_small_terms` at size budgets 3, 5 and 7, with the
  judgements it kept beside each time (size 7 takes about a minute:
  three timed runs and one more for the count).

Each time is printed twice: `cpu_s` is the run's CPU seconds, and
`scaled_s` the same time at the benchmark's nominal host speed, as
`perfbench/calibrate.py` measures it with a reference task run every 10 ms
of CPU time (its own time is left out of both columns).  The host is shared
and its speed drifts, so `cpu_s` of one run is comparable only within that
run; `scaled_s` compares across runs.  The tables are printed once every
curve is done, because a run's speed is read from the reference tasks on
both sides of it.  Under each table is the family's growth exponent: the
least-squares slope of log `cpu_s` against log n, over the sizes that took
at least 10 ms (faster ones are mostly timer and interpreter noise).

Every run starts from freshly parsed terms, so no cache carries over; the
parse of the library families is not timed.
"""

import contextlib
import importlib.util
import io
import math
import statistics
import sys
import tempfile
from pathlib import Path

from defuncc import cli, harness
from defuncc.defun import defun
from defuncc.sigma import Judgement, check_diagram
from defuncc.surface import parse_source

REPEATS = 3
FIT_MIN_S = 0.010  # the least CPU time a size needs to enter the growth fit
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "defuncc"


def src_lines() -> int:
    """The newlines in src/defuncc/*.py: the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))


def lambda_source(n: int) -> str:
    """`fun (x1 : Nat) => ... => fun (xn : Nat) => add x1 xn`: n nested lambdas."""
    binders = "".join(f"fun (x{i} : Nat) => " for i in range(1, n + 1))
    return f"{binders}add x1 x{n}\n"


def vec_source(n: int) -> str:
    """`cons (n-1) (... (cons 0 nil))`: a length-n vector whose index type
    computes with add."""
    body = "nil"
    for i in range(n):
        body = f"cons {i} ({body})"
    return (
        "axiom V : Nat -> Type 0;\naxiom nil : V 0;\n"
        f"axiom cons : (n : Nat) -> V n -> V (add n 1);\n{body}\n"
    )


def twice_source(k: int) -> str:
    """The polymorphic twice nested k times around a successor, applied to 0."""
    f = "(fun (n : Nat) => add n 1)"
    for _ in range(k):
        f = f"(twice Nat {f})"
    return (
        "def twice : (A : Type 0) -> (A -> A) -> A -> A :=\n"
        "  fun (A : Type 0) => fun (f : A -> A) => fun (x : A) => f (f x);\n"
        f"{f} 0\n"
    )


def add_source(n: int) -> str:
    """`add 1 (add 1 (... (add 1 0)))`: n nested additions, n steps to the numeral n."""
    return "add 1 (" * n + "0" + ")" * n + "\n"


def speed_meter():
    """A `perfbench/calibrate.Speed`, loaded from its file (perfbench is no
    package)."""
    spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
    calibrate = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = calibrate  # where its dataclasses look their module up
    spec.loader.exec_module(calibrate)
    return calibrate.Speed()


def best_cpu(prepare, speed) -> tuple[float, tuple, tuple] | None:
    """The run of REPEATS with the least CPU time: that time and the `speed`
    marks around it; None if a run returned False (the time of a wrong
    result means nothing).  Each run is made by prepare(), outside the timed
    region."""
    best = None
    for _ in range(REPEATS):
        run = prepare()
        start = speed.mark()
        ok = run()
        end = speed.mark()
        if not ok:
            return None
        cpu = (end[0] - start[0]) - (end[1] - start[1])  # less the reference tasks
        if best is None or cpu < best[0]:
            best = cpu, start, end
    return best


def growth_exponent(points: list[tuple[int, float]]) -> float | None:
    """The least-squares slope of log seconds against log n over the (n,
    seconds) points of at least FIT_MIN_S; None if fewer than two sizes are left."""
    kept = [(math.log(n), math.log(s)) for n, s in points if s >= FIT_MIN_S]
    if len({x for x, _ in kept}) < 2:
        return None
    return statistics.linear_regression(*zip(*kept)).slope


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


def diagram_counts(source):
    """The column names of the commuting-diagram report's σ-steps and labels,
    and a function giving them at size n, outside the timing."""

    def counts(n: int) -> tuple[int, int]:
        elab = parse_source(source(n)).elaborate()
        report = check_diagram(Judgement(elab.ctx, elab.main))
        return report.sigma_steps, report.labels

    return ("sigma_steps", "labels"), counts


def enumeration(n: int, work: Path):
    def run():
        return len(harness.enumerate_small_terms(harness.EnumConfig(size_budget=n))) > 0

    return lambda: run


def enumeration_kept(n: int) -> tuple[int]:
    """How many judgements the enumeration at size n keeps, outside the timing."""
    return (len(harness.enumerate_small_terms(harness.EnumConfig(size_budget=n))),)


FAMILIES = [
    ("defun, nested lambdas", defun_lambdas, (20, 40, 80, 160), None),
    ("translate-emit CLI, nested lambdas", emit_lambdas, (20, 30, 40, 50, 60, 120, 240), None),
    ("six checks, Vec chain", six_checks(vec_source), (10, 20, 40, 80), diagram_counts(vec_source)),
    ("six checks, nested twice", six_checks(twice_source), (1, 2, 3, 4, 5, 6),
     diagram_counts(twice_source)),
    ("six checks, nested lambdas", six_checks(lambda_source), (60, 120, 240, 480),
     diagram_counts(lambda_source)),
    ("six checks, Add chain", six_checks(add_source), (50, 100, 200), diagram_counts(add_source)),
    ("enumeration", enumeration, (3, 5, 7), (("kept",), enumeration_kept)),
]


def main() -> int:
    print(f"src/defuncc/*.py: {src_lines()} lines\n", flush=True)
    curves = []  # per family: (n, its best run or None, its counts or None)
    with tempfile.TemporaryDirectory() as tmp, speed_meter() as speed:
        for _, make, sizes, counted in FAMILIES:
            curve = []
            for n in sizes:
                best = best_cpu(make(n, Path(tmp)), speed)
                curve.append((n, best, counted[1](n) if counted and best else None))
            curves.append(curve)
    failed = False
    for (title, _, _, counted), curve in zip(FAMILIES, curves):
        columns = counted[0] if counted else ()
        widths = [max(len(c), 6) for c in columns]
        extra = "".join(f"  {c:>{w}}" for c, w in zip(columns, widths))
        print(f"{title}\n{'n':>5}  {'cpu_s':>8}  {'scaled_s':>8}{extra}")
        for n, best, count in curve:
            failed = failed or best is None
            if best is None:
                print(f"{n:>5}    FAILED")
                continue
            cpu, start, end = best
            line = f"{n:>5}  {cpu:>8.3f}  {speed.scaled(start, end):>8.3f}"
            print(line + "".join(f"  {v:>{w}}" for v, w in zip(count or (), widths)))
        exponent = growth_exponent([(n, best[0]) for n, best, _ in curve if best])
        fit = "n/a (fewer than two sizes took 10 ms)" if exponent is None else f"{exponent:.2f}"
        print(f"growth exponent: {fit}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
