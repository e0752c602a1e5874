#!/usr/bin/env python3
"""defuncc benchmark: one client, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src, never from
an installed copy.  The next judgement starts only after the previous verdict;
the loop runs whole passes over the workload's inputs (each pass in a seeded
order) until the time is up, so every run measures the same mix.  Each verdict
is checked against its known answer; a wrong verdict or an escaped exception
counts as failed and the run goes on.

Times in the end-to-end metrics (set-up and each judgement) are CPU time of
the benchmark's thread, scaled to a nominal host speed by reference tasks run
along the way (see calibrate.py): the shared host changes speed by up to 1.7x
for seconds at a time, which unscaled times pass straight on.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 spends
half the time untraced and half traced, and prints the per-layer metrics; the
spans are written to perfbench/.work/spans-<workload>.tsv.gz.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import Speed
from tracing import Tracer, growth_exponent
from workloads import WORKLOADS, Inputs, Program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("syntax", "errors", "cc", "dcc", "defun", "refun", "sigma", "surface",
           "harness", "cli")
SETUP_REPEATS = 5  # a fixed count, so that peak memory does not depend on speed
GROWTH_FAMILIES = ("vec", "twice", "lams")
MIN_SAMPLES = 100  # an untraced run goes on until ten samples lie above p90


def import_program() -> Program:
    """A fresh import of defuncc from ./src, so that set-up time includes it."""
    for name in [m for m in sys.modules if m == "defuncc" or m.startswith("defuncc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("defuncc")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"defuncc was imported from {pkg.__file__}, not from {SRC}")
    return Program({m: importlib.import_module(f"defuncc.{m}") for m in MODULES})


def set_up(workload: str, seed: int, work: Path) -> tuple[Program, Inputs]:
    prog = import_program()
    return prog, WORKLOADS[workload](prog, random.Random(seed), ROOT, work)


@dataclass
class Loop:
    times: list[float] = field(default_factory=list)  # wall seconds
    marks: list[tuple] = field(default_factory=list)  # Speed marks around each judgement
    failures: list[str] = field(default_factory=list)
    points: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    passes: int = 0
    elapsed: float = 0.0


def _verdict_ok(judgement, out) -> bool:
    try:
        return bool(judgement.expect(out))
    except Exception:  # a malformed answer is a wrong verdict
        return False


def run_loop(inputs: Inputs, seconds: float, rng: random.Random,
             tracer: Tracer | None = None, speed: Speed | None = None,
             min_samples: int = 0) -> Loop:
    """Whole passes until the next would end past the budget and at least
    `min_samples` judgements are done (at least one pass).  With `speed`,
    each judgement is also marked for scaling by host speed."""
    loop = Loop()
    next_id = 0
    start = perf_counter()
    while True:
        order = list(inputs.judgements)
        rng.shuffle(order)
        pass_start = perf_counter()
        for j in order:
            if tracer is not None:
                tracer.judgement = next_id
            next_id += 1
            mark = speed.mark() if speed is not None else None
            t0 = perf_counter()
            try:
                out, error = j.run(), None
            except Exception as exc:  # counted as a failed judgement
                out, error = None, exc
            dt = perf_counter() - t0
            if speed is not None:
                loop.marks.append((mark, speed.mark()))
            loop.times.append(dt)
            if j.family:
                loop.points.setdefault(j.family, []).append((j.size, dt))
            if error is not None:
                loop.failures.append(f"{j.name}: {type(error).__name__}: {error}"[:300])
            elif not _verdict_ok(j, out):
                loop.failures.append(f"{j.name}: wrong verdict")
        if tracer is not None:
            tracer.judgement = -1
        loop.passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds and len(loop.times) >= min_samples:
            loop.elapsed = now - start
            return loop


def run_probes(inputs: Inputs) -> list[tuple[str, str]]:
    rows = []
    for probe in inputs.probes:
        try:
            verdict = "ok" if probe.expect(probe.run()) else "FAIL (wrong verdict)"
        except Exception as exc:
            verdict = f"FAIL ({type(exc).__name__})"
        rows.append((probe.name, verdict))
    return rows


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "defuncc").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "defuncc" / "__init__.py").is_file():
        print(f"error: no defuncc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, work: Path) -> int:
    speed = Speed()
    setup_marks = []
    with speed:
        for _ in range(SETUP_REPEATS):
            start = speed.mark()
            prog, inputs = set_up(args.workload, args.seed, work)
            setup_marks.append((start, speed.mark()))
        order_rng = random.Random(f"{args.seed}/order")
        if not args.trace:
            loop = run_loop(inputs, args.seconds, order_rng, speed=speed,
                            min_samples=MIN_SAMPLES)
    setup_s = statistics.median(speed.scaled(*m) for m in setup_marks)

    if not args.trace:
        loops = [loop]
        times = sorted(speed.scaled(*m) for m in loop.marks)
        p50, _ = nearest_rank(times, 0.50)
        p90, above = nearest_rank(times, 0.90)
        metrics = {
            "judgements_per_s": len(times) / sum(times),
            "judgement_p50_ms": p50 * 1e3,
            "judgement_p90_ms": p90 * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        notes = [f"samples {len(times)}, {above} above p90, {loop.passes} passes "
                 f"in {loop.elapsed:.2f} s wall",
                 f"unscaled: {len(loop.times) / loop.elapsed:.3f} judgements per wall second, "
                 f"{len(speed.samples)} reference tasks, median "
                 f"{statistics.median(speed.samples) * 1e3:.3f} ms"]
    else:
        plain = run_loop(inputs, args.seconds / 2, order_rng)
        tracer = Tracer()
        tracer.install(prog)
        try:
            WORKLOADS[args.workload](prog, random.Random(args.seed), ROOT, work)
            traced = run_loop(inputs, args.seconds / 2, order_rng, tracer)
        finally:
            tracer.uninstall()
        loops = [plain, traced]
        per_pass = len(inputs.judgements)
        metrics = tracer.layer_metrics(traced.passes, per_pass)
        for family in GROWTH_FAMILIES:
            metrics[f"harness.growth_exp.{family}"] = growth_exponent(plain.points.get(family, []))
        metrics["syntax.input_nodes"] = sum(j.nodes for j in inputs.judgements)
        metrics["trace.overhead"] = ((len(traced.times) / traced.elapsed)
                                     / (len(plain.times) / plain.elapsed))
        tracer.write(ROOT / "perfbench" / ".work" / f"spans-{args.workload}.tsv.gz")
        wanted = spec["per_layer"]
        notes = [f"untraced {plain.passes} passes in {plain.elapsed:.2f} s, "
                 f"traced {traced.passes} passes in {traced.elapsed:.2f} s, "
                 f"{len(tracer.spans)} spans"]

    probes = run_probes(inputs)
    if args.trace:
        metrics["robust.failed_rows"] = sum(v != "ok" for _, v in probes)
    attempted = sum(len(loop.times) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    correct = inputs.setup_ok and not failures

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"judgements per pass {len(inputs.judgements)}  src_lines {src_lines()}")
    for note in notes + ([inputs.setup_note] if inputs.setup_note else []):
        print(f"  {note}")
    print(f"  failed_share {len(failures) / max(attempted, 1):.6f} 1 "
          f"({len(failures)}/{attempted})")
    for failure in failures[:10]:
        print(f"    {failure}")
    for name, verdict in probes:
        print(f"  robustness: {name}: {verdict}")
    out = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"  {m['name']:<40} {value:>14.6f} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
