"""Byte-for-byte snapshot of the CLI over the corpus.

For every corpus/*.cc program, tests/golden/ holds the `defun --emit text`
output, the `checkdcc` output for that translation, and the `verify` output.
For every ill-typed file under corpus/bad/, tests/golden/bad/ holds the
`verify` output followed by its exit code, so failure messages are pinned
too.  Any moved label number, fresh-name prime, printed type, step count or
failure message shows up as a diff here.

Regenerate (only when a change of output is intended and recorded in
CHANGES.md): PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from defuncc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
PROGRAMS = sorted(CORPUS.glob("*.cc"))
BAD = sorted((CORPUS / "bad").iterdir())
KINDS = ("dcc", "checkdcc", "verify")


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


if __name__ == "__main__":
    (GOLDEN / "bad").mkdir(parents=True, exist_ok=True)
    for path in PROGRAMS:
        for kind, text in render(path).items():
            (GOLDEN / f"{path.stem}.{kind}").write_text(text)
    for path in BAD:
        (GOLDEN / "bad" / f"{path.name}.verify").write_text(render_bad(path))
    print(f"wrote {len(PROGRAMS) * len(KINDS) + len(BAD)} files to {GOLDEN}",
          file=sys.stderr)
