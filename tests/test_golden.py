"""Byte-for-byte snapshot of the CLI over the corpus.

For every corpus/*.cc program, tests/golden/ holds the `defun --emit text`
output, the `checkdcc` output for that translation, and the `verify` output.
Any moved label number, fresh-name prime, printed type or step count shows up
as a diff here.

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
KINDS = ("dcc", "checkdcc", "verify")


def _stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"defuncc {' '.join(argv)} exited {code}"
    return out.getvalue()


def render(path: Path) -> dict[str, str]:
    """The three outputs recorded for one corpus program."""
    text = _stdout("defun", "--emit", "text", str(path))
    with tempfile.TemporaryDirectory() as tmp:
        dcc = Path(tmp) / f"{path.stem}.dcc"
        dcc.write_text(text)
        checked = _stdout("checkdcc", str(dcc))
    return {"dcc": text, "checkdcc": checked, "verify": _stdout("verify", str(path))}


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_corpus_output_matches_golden(path):
    got = render(path)
    for kind in KINDS:
        want = (GOLDEN / f"{path.stem}.{kind}").read_text()
        assert got[kind] == want, f"{path.name}: {kind} output changed"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in PROGRAMS:
        for kind, text in render(path).items():
            (GOLDEN / f"{path.stem}.{kind}").write_text(text)
    print(f"wrote {len(PROGRAMS) * len(KINDS)} files to {GOLDEN}", file=sys.stderr)
