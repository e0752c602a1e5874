"""Shared fixtures: corpus files, elaborated judgements, small builders,
mutated inputs, and a joinability search."""

import importlib.util
import random
from pathlib import Path

import pytest

from defuncc.harness import EnumConfig, enumerate_small_terms, load_file, source_judgements
from defuncc.surface import parse_source
from defuncc.syntax import alpha_eq

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
BAD = CORPUS / "bad"


def _script(name: str):
    """A module of scripts/, loaded from its file (scripts/ is no package)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the scaling families, as scripts/scaling.py and scripts/fingerprint.py build them
_families = _script("scaling")


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
def enumerated() -> tuple:
    """The 2,525 judgements of the size-6 enumeration, built once for every
    test that only reads them."""
    return tuple(enumerate_small_terms(EnumConfig(size_budget=6)))


@pytest.fixture(scope="session")
def bad_dcc_paths() -> list[Path]:
    paths = sorted(BAD.glob("*.dcc"))
    assert len(paths) == 5
    return paths


# what a mutant may insert: every token, some stray text, and layout
_INSERTS = ("(", ")", "{", "}", ",", ":", ";", "->", "=>", ":=", "add", "fun", "Type",
            "Nat", "label", "axiom", "def", "l0", "l1", "_", "x", "0", "-", "$", "\n",
            "-- c\n")


@pytest.fixture(scope="session")
def input_files() -> list[tuple[str, str]]:
    """(suffix, text) of every corpus file, bad ones too, and golden label file."""
    paths = [*sorted(CORPUS.glob("*.cc")), *sorted(BAD.iterdir()),
             *sorted((ROOT / "tests" / "golden").glob("*.dcc"))]
    return [(p.suffix, p.read_text()) for p in paths]


@pytest.fixture(scope="session")
def mutants(input_files):
    """mutants(count, seed): `count` (suffix, text) pairs drawn by a seeded
    generator.  Each text is one of `input_files` with one edit: a token
    inserted (bare or spaced), a span of 1 to 12 characters deleted, or the
    rest of the text cut off."""

    def draw(count: int, seed: int) -> list[tuple[str, str]]:
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            suffix, text = rng.choice(input_files)
            i = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                token = rng.choice(_INSERTS)
                text = text[:i] + rng.choice((token, f" {token} ")) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + rng.randint(1, 12):]
            else:
                text = text[:i]
            out.append((suffix, text))
        return out

    return draw


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
    """Builder for the scaling families: ("vec", n), ("twice", k),
    ("lambdas", n) or ("add", n) gives the program's (ctx, main term)."""
    sources = {
        "vec": _families.vec_source,
        "twice": _families.twice_source,
        "lambdas": _families.lambda_source,
        "add": _families.add_source,
    }

    def build(family: str, size: int):
        elab = parse_source(sources[family](size)).elaborate()
        return elab.ctx, elab.main

    return build


@pytest.fixture(scope="session")
def scaling_programs(scaling):
    """scaling_programs(): the scaling programs the differential tests run,
    Vec n=2..8, `twice` k=1..3 and nested lambdas n=20..60, as (ctx, main
    term) pairs.  Each call builds them afresh, so no test reads the node
    caches another test warmed."""
    sizes = [("vec", n) for n in range(2, 9)] + [("twice", k) for k in range(1, 4)]
    sizes += [("lambdas", n) for n in range(20, 61, 10)]
    return lambda: [scaling(family, size) for family, size in sizes]
