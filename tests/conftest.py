"""Shared fixtures: corpus files, elaborated judgements, small builders, and
a joinability search."""

from pathlib import Path

import pytest

from defuncc.harness import load_file, source_judgements
from defuncc.surface import parse_source
from defuncc.syntax import alpha_eq

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
BAD = CORPUS / "bad"

_TWICE = (
    "def twice : (A : Type 0) -> (A -> A) -> A -> A :=\n"
    "  fun (A : Type 0) => fun (f : A -> A) => fun (x : A) => f (f x);\n"
)


def _vec_source(n: int) -> str:
    """`cons (n-1) (... (cons 0 nil))`: a length-n vector whose index type
    computes with add."""
    body = "nil"
    for i in range(n):
        body = f"cons {i} ({body})"
    return (
        "axiom V : Nat -> Type 0;\naxiom nil : V 0;\n"
        f"axiom cons : (n : Nat) -> V n -> V (add n 1);\n{body}\n"
    )


def _twice_source(k: int) -> str:
    """The polymorphic twice nested k times around a successor, applied to 0."""
    f = "(fun (n : Nat) => add n 1)"
    for _ in range(k):
        f = f"(twice Nat {f})"
    return f"{_TWICE}{f} 0\n"


def _lambda_source(n: int) -> str:
    """`fun (x1 : Nat) => ... => fun (xn : Nat) => add x1 xn`: n nested lambdas."""
    return "".join(f"fun (x{i} : Nat) => " for i in range(1, n + 1)) + f"add x1 x{n}\n"


@pytest.fixture(scope="session")
def corpus_paths() -> list[Path]:
    paths = sorted(CORPUS.glob("*.cc"))
    assert paths, "corpus directory is empty"
    return paths


@pytest.fixture(scope="session")
def corpus_judgements(corpus_paths):
    """Every (label, context, term) judgement from every corpus file."""
    out = []
    for path in corpus_paths:
        elab = load_file(path)
        for name, ctx, term in source_judgements(elab):
            out.append((f"{path.name}:{name}", ctx, term))
    return out


@pytest.fixture(scope="session")
def bad_dcc_paths() -> list[Path]:
    paths = sorted(BAD.glob("*.dcc"))
    assert len(paths) == 5
    return paths


@pytest.fixture(scope="session")
def elaborated():
    """Loader for corpus files by stem name."""

    def load(stem: str):
        return load_file(CORPUS / f"{stem}.cc")

    return load


def _joinable(step, a, b, max_steps: int = 200) -> bool:
    """Breadth-first joinability under a one-step reduction function."""

    def frontier(t):
        seen = {t}
        queue = [t]
        budget = max_steps
        while queue and budget > 0:
            cur = queue.pop(0)
            nxt = step(cur)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                budget -= 1
        return seen

    fa = frontier(a)
    fb = frontier(b)
    return any(alpha_eq(x, y) for x in fa for y in fb)


@pytest.fixture(scope="session")
def joinable():
    """joinable(step, a, b): a bounded search for a common reduct of a and b,
    a cross-check of equivalence independent of the kernel's conversion."""
    return _joinable


@pytest.fixture(scope="session")
def scaling():
    """Builder for the scaling families: ("vec", n), ("twice", k) or
    ("lambdas", n) gives the program's (ctx, main term)."""
    sources = {"vec": _vec_source, "twice": _twice_source, "lambdas": _lambda_source}

    def build(family: str, size: int):
        elab = parse_source(sources[family](size)).elaborate()
        return elab.ctx, elab.main

    return build
