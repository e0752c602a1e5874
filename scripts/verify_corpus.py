#!/usr/bin/env python3
"""Run every metatheory check over the corpus, or over a given file/directory.

Usage: python scripts/verify_corpus.py [path]

Prints one line per check per judgement.  Exits 0 when every check passes,
2 when some file could not be read, parsed or followed for nesting too deeply
(as `defuncc verify` does), else 1.
"""

import sys
from pathlib import Path

from defuncc.harness import verify_path


def main() -> int:
    default = Path(__file__).resolve().parent.parent / "corpus"
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    ok, lines, unread = verify_path(target)
    for line in lines:
        print(line)
    checks = sum(": ok" in line for line in lines)
    failures = sum("FAIL" in line for line in lines)
    if ok:
        print(f"all good: {checks} checks passed")
        return 0
    unread_note = f"{unread} file(s) could not be checked, " if unread else ""
    print(f"{unread_note}{failures} failure(s) among {checks + failures} checks",
          file=sys.stderr)
    return 2 if unread else 1


if __name__ == "__main__":
    raise SystemExit(main())
