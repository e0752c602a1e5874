"""The scripts under scripts/, run as a user runs them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_fingerprint_flags_on_the_corpus_match_the_golden_verdicts():
    """Every line, flags and digests, against the corpus part of the
    fingerprint as it was recorded: the golden verdicts of every corpus
    judgement at the default budget and at each small one.  At the small
    budgets some checks run out of steps and others do not, so a change that
    makes a check reduce, derive or translate more (or less) than before
    shows up as a moved flag."""
    proc = _run_script("fingerprint.py", "corpus")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 350  # 50 judgements at 7 budgets
    assert all(" @1000000: ok ok ok ok ok ok " in line for line in lines[::7])
    assert proc.stdout == (ROOT / "tests" / "golden" / "fingerprint_corpus.txt").read_text()


def test_fingerprint_emit_part_runs_every_cli_command():
    """Exit codes as the files ask, and every line against the emit part of
    the fingerprint as it was recorded: each hash covers a command's whole
    stdout and stderr, so no emitted byte can move unseen."""
    proc = _run_script("fingerprint.py", "emit")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    # four commands for each corpus file and lambda chain, two for each bad file
    assert len(lines) == 4 * (24 + 5) + 2 * 6
    codes = {}
    for line in lines:
        head, tail = line.split(": exit ")
        code, digest = tail.split()
        assert len(digest) == 16
        codes[head] = int(code)
    assert len(codes) == len(lines)
    assert [head for head, code in codes.items() if code] == [
        head for head in codes if head.startswith("bad/")
    ]
    assert codes["lambdas-60.cc refun"] == codes["compose_dependent.cc defun --emit json"] == 0
    # every line, digests of the emitted text and JSON too, as it was recorded
    assert proc.stdout == (ROOT / "tests" / "golden" / "fingerprint_emit.txt").read_text()


@pytest.mark.parametrize("part", ["vec", "twice"])
def test_fingerprint_diagram_parts_match_the_golden(part):
    """Every line of the Vec-chain and nested-`twice` parts, as recorded: these
    run the diagram over σ-states, where a suspension's subject is typed
    under several names more than its conclusion."""
    proc = _run_script("fingerprint.py", part)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (ROOT / "tests" / "golden" / f"fingerprint_{part}.txt").read_text()


def test_scaling_header_prints_the_source_line_count(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    files = sorted(str(p) for p in (ROOT / "src" / "defuncc").glob("*.py"))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert scaling.src_lines() == total
    monkeypatch.setattr(scaling, "FAMILIES", [])  # the header alone, no curves
    assert scaling.main() == 0
    assert capsys.readouterr().out == f"src/defuncc/*.py: {total} lines\n\n"


def test_scaling_growth_exponent_of_exact_powers():
    """The fit recovers the power of t = c·n^k, and leaves out the sizes that
    took under 10 ms."""
    spec = importlib.util.spec_from_file_location("scaling", ROOT / "scripts" / "scaling.py")
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    fit = scaling.growth_exponent
    assert fit([(n, 0.5 * n**2) for n in (2, 4, 8, 16)]) == pytest.approx(2.0)
    assert fit([(n, 0.01 * n) for n in (1, 3, 9)]) == pytest.approx(1.0)
    assert fit([(1, 0.009), (2, 0.5), (4, 1.0)]) == pytest.approx(1.0)  # n=1 left out
    assert fit([(1, 0.001), (2, 0.5)]) is None  # one size left
