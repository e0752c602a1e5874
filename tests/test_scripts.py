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


def test_verify_corpus_passes_on_the_corpus():
    proc = _run_script("verify_corpus.py")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "all good: 350 checks passed"


def test_verify_corpus_counts_files_it_cannot_check(tmp_path):
    (tmp_path / "two_plus_two.cc").write_text((ROOT / "corpus" / "two_plus_two.cc").read_text())
    (tmp_path / "garbled.cc").write_bytes(b"axiom A : Type 0;\n\xff\xfe\n")
    (tmp_path / "broken.cc").write_text("add 1 1\n)\n")
    proc = _run_script("verify_corpus.py", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == "2 file(s) could not be checked, 0 failure(s) among 7 checks\n"


def test_verify_corpus_exits_one_on_a_failing_check(tmp_path):
    bad = (ROOT / "corpus" / "bad" / "unknown_label.dcc").read_text()
    (tmp_path / "unknown_label.dcc").write_text(bad)
    proc = _run_script("verify_corpus.py", str(tmp_path))
    assert (proc.returncode, proc.stderr) == (1, "1 failure(s) among 2 checks\n")


def test_fingerprint_flags_on_the_corpus_match_the_golden_verdicts():
    """The flags against the budget verdicts, and every line, digests too,
    against the corpus part of the fingerprint as it was recorded."""
    proc = _run_script("fingerprint.py", "corpus")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert len(lines) == 350  # 50 judgements at 7 budgets
    flags = [line.rsplit(" ", 1)[0] for line in lines]
    assert all(f.endswith("@1000000: ok ok ok ok ok ok") for f in flags[::7])
    golden = (ROOT / "tests" / "golden" / "budget_verdicts.txt").read_text().splitlines()
    assert [f for i, f in enumerate(flags) if i % 7] == golden
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
