"""Spans at defuncc's module boundaries, recorded from the benchmark's side.

The tracer replaces names in the *calling* module's namespace (for example
`defuncc.harness.defun` or `defuncc.sigma.dcc_equiv`) with wrappers that record
a span (name, start, end, parent, judgement) and restores them afterwards; the
program's source is not touched.  A span's layer is the prefix of its name.
Recursive entry points are timed only at their outermost call.
"""

from __future__ import annotations

import gzip
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from workloads import count_nodes

CHECK_NAMES = ("type-preservation", "reduction-preservation", "round-trip",
               "type-safety", "weakening", "commuting-diagram")

# caller module -> {imported name: span name}
CALL_SITES = {
    "harness": {
        "cc_check_context": "cc.check_context", "cc_infer": "cc.infer",
        "cc_equiv": "cc.equiv", "cc_normalize": "cc.normalize",
        "dcc_check": "dcc.check", "dcc_infer": "dcc.infer",
        "dcc_equiv": "dcc.equiv", "dcc_normalize": "dcc.normalize",
        "defun": "defun.defun", "refun_expr": "refun.refun_expr",
        "refun_context": "refun.refun_context", "check_diagram": "sigma.check_diagram",
        "alpha_eq": "syntax.alpha_eq", "show_term": "surface.show",
    },
    "defun": {"cc_infer": "cc.infer", "fv_telescope": "cc.fv_telescope"},
    "sigma": {
        "cc_infer": "cc.infer", "cc_reduce_trace": "cc.normalize",
        "dcc_check": "dcc.check", "dcc_infer": "dcc.infer",
        "dcc_equiv": "dcc.equiv", "dcc_normalize": "dcc.normalize",
        "alpha_eq": "syntax.alpha_eq", "_s_infer": "sigma.infer",
    },
    "refun": {"dcc_check": "dcc.check", "dcc_infer": "dcc.infer"},
    "cli": {
        "cc_check_context": "cc.check_context", "cc_infer": "cc.infer",
        "cc_equiv": "cc.equiv", "cc_normalize": "cc.normalize",
        "dcc_infer": "dcc.infer", "dcc_normalize": "dcc.normalize",
        "defun": "defun.defun", "refun": "refun.refun", "load_file": "surface.load",
        "verify_dcc": "harness.verify_dcc", "emit_text": "surface.emit",
        "emit_json": "surface.emit", "show_term": "surface.show", "show_ctx": "surface.show",
    },
}
RECURSIVE = {"sigma.infer"}
TRANSLATION_METHODS = ("translate", "translate_context", "finalize")
# the benchmark's own calls into the program (attributes of workloads.Program)
PROGRAM_CALLS = {
    "cc_check_context": "cc.check_context", "cc_infer": "cc.infer",
    "cc_equiv": "cc.equiv", "load_file": "surface.load",
    "enumerate_small_terms": "harness.enumerate", "cli_main": "cli.main",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.judgement = -1  # -1 while setting up
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording

    def wrap(self, name: str, fn: Callable, recursive: bool = False,
             on_result: Callable | None = None) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth

        def traced(*args, **kwargs):
            if recursive and depth[name]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.judgement)
            if on_result is not None and self.judgement >= 0:
                on_result(args, result)
            return result

        return traced

    def _patch(self, obj: Any, attr: str, value: Any) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, prog) -> None:
        """Wrap every call site listed above, plus the benchmark's own calls."""
        mods = prog.mods
        hooks = {
            "cc.infer": self._count_derivation,
            "defun.defun": self._count_defun,
            "sigma.check_diagram": self._count_diagram,
            "surface.emit": self._count_emit,
        }
        for caller, sites in CALL_SITES.items():
            module = mods[caller]
            for attr, name in sites.items():
                self._patch(module, attr, self.wrap(
                    name, getattr(module, attr), name in RECURSIVE, hooks.get(name)))
        base = mods["defun"].Translation
        methods = {m: self.wrap(f"defun.{m}", getattr(base, m), recursive=True)
                   for m in TRANSLATION_METHODS}
        traced_cls = type("Translation", (base,), methods)
        for caller in ("harness", "sigma"):
            self._patch(mods[caller], "Translation", traced_cls)
        for attr, name in PROGRAM_CALLS.items():
            self._patch(prog, attr, self.wrap(name, getattr(prog, attr), hooks.get(name)))
        self._patch(prog, "checks", tuple(
            self.wrap(f"harness.check.{label}", check)
            for label, check in zip(CHECK_NAMES, prog.checks)))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- counters at the same boundaries

    def _count_derivation(self, args, deriv) -> None:
        nodes, stack = 0, [deriv]
        while stack:
            d = stack.pop()
            nodes += 1
            stack.extend(d.children)
        self.counts["cc.derivation_nodes"] += nodes

    def _count_defun(self, args, res) -> None:
        self.counts["defun.labels"] += len(res.defs)
        self.counts["defun.lambdas_in"] += count_nodes(args[1], names=("Lam",))

    def _count_diagram(self, args, report) -> None:
        self.counts["sigma.states"] += report.sigma_steps + 1
        self.counts["sigma.subst_nodes"] += report.subst_nodes
        self.counts["sigma.labels"] += report.labels

    def _count_emit(self, args, text) -> None:
        self.counts["surface.emit_bytes"] += len(text.encode())

    # -- results

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\tjudgement\n")
            for name, start, end, parent, judgement in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{judgement}\n")

    def layer_metrics(self, passes: int, judgements_per_pass: int) -> dict[str, float]:
        """Per-layer metrics for one pass over the workload's inputs.  Loop
        spans are averaged over the traced passes; harness.enumerate_s and
        surface.load_s also include the one traced set-up."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        self_layer: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        setup_incl: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, judgement) in enumerate(self.spans):
            if judgement < 0:
                setup_incl[name] += end - start
                continue
            incl[name] += end - start
            self_layer[name.split(".")[0]] += end - start - child[i]
            calls[name] += 1
        p = max(passes, 1)
        lambdas = self.counts["defun.lambdas_in"]
        m = {
            "sigma.diagram_s": incl["sigma.check_diagram"] / p,
            "sigma.self_s": self_layer["sigma"] / p,
            "sigma.states": self.counts["sigma.states"] / p,
            "sigma.subst_nodes": self.counts["sigma.subst_nodes"] / p,
            "sigma.labels": self.counts["sigma.labels"] / p,
            "cc.infer_s": (incl["cc.infer"] + incl["cc.check_context"]) / p,
            "cc.infer_calls": calls["cc.infer"] / p,
            "cc.derivation_nodes": self.counts["cc.derivation_nodes"] / p,
            "cc.normalize_s": incl["cc.normalize"] / p,
            "cc.equiv_s": incl["cc.equiv"] / p,
            "defun.self_s": self_layer["defun"] / p,
            "defun.calls": calls["defun.defun"] / p,
            "defun.calls_per_judgement": calls["defun.defun"] / p / max(judgements_per_pass, 1),
            "defun.labels": self.counts["defun.labels"] / p,
            "defun.label_share": self.counts["defun.labels"] / lambdas if lambdas else 0.0,
            "dcc.check_s": incl["dcc.check"] / p,
            "dcc.infer_s": incl["dcc.infer"] / p,
            "dcc.normalize_s": incl["dcc.normalize"] / p,
            "dcc.equiv_s": incl["dcc.equiv"] / p,
            "refun.self_s": self_layer["refun"] / p,
            "refun.calls": sum(calls[n] for n in calls if n.startswith("refun.")) / p,
            "surface.load_s": incl["surface.load"] / p + setup_incl["surface.load"],
            "surface.emit_s": (incl["surface.emit"] + incl["surface.show"]) / p,
            "surface.emit_bytes": self.counts["surface.emit_bytes"] / p,
            "harness.enumerate_s": setup_incl["harness.enumerate"],
            "syntax.alpha_eq_s": incl["syntax.alpha_eq"] / p,
            "cli.self_s": self_layer["cli"] / p,
        }
        for label in CHECK_NAMES:
            m[f"harness.check_s.{label}"] = incl[f"harness.check.{label}"] / p
        return m


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median time) against log(size)."""
    by_size: dict[int, list[float]] = defaultdict(list)
    for size, t in points:
        by_size[size].append(t)
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
