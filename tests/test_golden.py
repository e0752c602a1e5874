"""Byte-for-byte snapshot of the CLI over the corpus.

For every corpus/*.cc program, tests/golden/ holds the `defun --emit text`
output, the `checkdcc` output for that translation, and the `verify` output.
For every ill-typed file under corpus/bad/, tests/golden/bad/ holds the
`verify` output followed by its exit code, so failure messages are pinned
too.  Any moved label number, fresh-name prime, printed type, step count or
failure message shows up as a diff here.  `defuncc verify corpus` prints the
per-file `verify` goldens one after another.

The `fingerprint_*.txt` goldens are the parts of scripts/fingerprint.py that
tests/test_scripts.py compares; `fingerprint_corpus.txt` holds the six
checks' verdicts of every corpus judgement at the default and at small
budgets.  At the small budgets in BUDGETS some checks run out of steps and
others do not, so a change that makes a check reduce, derive or translate
more (or less) than before shows up as a moved flag; the verdicts rendered
here, in process, are compared with the flags of that golden.

Regenerate every golden (only when a change of output is intended and
recorded in CHANGES.md): PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from defuncc.cli import main
from defuncc.harness import ALL_CHECKS, load_file, source_judgements

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
PROGRAMS = sorted(CORPUS.glob("*.cc"))
BAD = sorted((CORPUS / "bad").iterdir())
KINDS = ("dcc", "checkdcc", "verify")
FINGERPRINTS = ("corpus", "vec", "twice", "emit")  # the parts kept as goldens
BUDGETS = (3, 5, 8, 12, 20, 30)


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _stdout(*argv: str) -> str:
    code, out = _run(*argv)
    assert code == 0, f"defuncc {' '.join(argv)} exited {code}"
    return out


def render(path: Path) -> dict[str, str]:
    """The three outputs recorded for one corpus program."""
    text = _stdout("defun", "--emit", "text", str(path))
    with tempfile.TemporaryDirectory() as tmp:
        dcc = Path(tmp) / f"{path.stem}.dcc"
        dcc.write_text(text)
        checked = _stdout("checkdcc", str(dcc))
    return {"dcc": text, "checkdcc": checked, "verify": _stdout("verify", str(path))}


def render_bad(path: Path) -> str:
    """`verify` output of one ill-typed file, then its exit code."""
    code, out = _run("verify", str(path))
    return f"{out}exit {code}\n"


def render_budget_verdicts() -> str:
    """One line per corpus judgement and budget: `file:judgement @budget:`
    then the six verdicts."""
    lines = []
    for path in PROGRAMS:
        for name, ctx, term in source_judgements(load_file(path)):
            for budget in BUDGETS:
                flags = " ".join(
                    "ok" if check(ctx, term, budget).ok else "FAIL" for check in ALL_CHECKS
                )
                lines.append(f"{path.name}:{name} @{budget}: {flags}\n")
    return "".join(lines)


def golden_budget_verdicts() -> str:
    """The small-budget lines of fingerprint_corpus.txt without their digests."""
    lines = (GOLDEN / "fingerprint_corpus.txt").read_text().splitlines()
    return "".join(f"{line.rsplit(' ', 1)[0]}\n" for line in lines
                   if not line.split(": ", 1)[0].endswith("@1000000"))


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_corpus_output_matches_golden(path):
    got = render(path)
    for kind in KINDS:
        want = (GOLDEN / f"{path.stem}.{kind}").read_text()
        assert got[kind] == want, f"{path.name}: {kind} output changed"


@pytest.mark.parametrize("path", BAD, ids=lambda p: p.name)
def test_bad_verify_output_matches_golden(path):
    want = (GOLDEN / "bad" / f"{path.name}.verify").read_text()
    assert render_bad(path) == want, f"bad/{path.name}: verify output changed"


def test_small_budget_verdicts_match_golden():
    want = golden_budget_verdicts()
    assert want.count("\n") == 300  # 50 judgements at 6 budgets
    assert render_budget_verdicts() == want, "a verdict moved"


def test_verify_of_the_corpus_prints_the_verify_goldens_in_order(capsys):
    code = main(["verify", str(CORPUS)])
    want = "".join((GOLDEN / f"{path.stem}.verify").read_text() for path in PROGRAMS)
    assert (code, capsys.readouterr().out) == (0, want)


if __name__ == "__main__":
    from test_scripts import _run_script  # the fingerprint parts, run as their test runs them

    (GOLDEN / "bad").mkdir(parents=True, exist_ok=True)
    for path in PROGRAMS:
        for kind, text in render(path).items():
            (GOLDEN / f"{path.stem}.{kind}").write_text(text)
    for path in BAD:
        (GOLDEN / "bad" / f"{path.name}.verify").write_text(render_bad(path))
    for part in FINGERPRINTS:
        proc = _run_script("fingerprint.py", part)
        if proc.returncode:
            sys.exit(f"scripts/fingerprint.py {part} exited {proc.returncode}:\n{proc.stderr}")
        (GOLDEN / f"fingerprint_{part}.txt").write_text(proc.stdout)
    print(f"wrote {len(PROGRAMS) * len(KINDS) + len(BAD) + len(FINGERPRINTS)} files to {GOLDEN}",
          file=sys.stderr)
