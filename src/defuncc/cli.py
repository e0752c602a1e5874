"""Command line driver.

Exit codes: 0 success, 1 type error (or input nested too deeply to check),
2 parse error (including a name declared twice), 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# cc_equiv stays a module attribute: perfbench/tracing.py wraps it at this call site
from .cc import cc_check_context, cc_equiv, cc_infer, cc_normalize  # noqa: F401
from .dcc import dcc_infer, dcc_normalize
from .defun import defun
from .errors import DefunccError, ParseError
from .harness import check_annotations, load_file, verify_dcc, verify_path
from .kernel import DEFAULT_BUDGET
from .refun import refun
from .surface import emit_json, emit_text, show_ctx, show_term
from .syntax import Term

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


def _require_main(elab) -> Term:
    if elab.main is None:
        raise DefunccError("file has no main term")
    return elab.main


def _check_source(elab, budget: int):
    """The elaborated file, once its context and every definition check."""
    cc_check_context(elab.ctx, budget)
    for _, error in check_annotations(elab, budget):
        if error is not None:
            raise error
    return elab


def _cmd_check(args) -> int:
    elab = _check_source(load_file(args.file), args.budget)
    if elab.main is not None:
        d = cc_infer(elab.ctx, elab.main, args.budget, check_ctx=False)
        print(show_term(d.type))
    else:
        print("ok")
    return EXIT_OK


def _cmd_defun(args) -> int:
    elab = _check_source(load_file(args.file), args.budget)
    term = _require_main(elab)
    res = defun(elab.ctx, term, args.budget)
    emit = emit_json if args.emit == "json" else emit_text
    out = emit(res.labels, res.dcc_ctx, res.term)
    if args.out:
        Path(args.out).write_text(out if out.endswith("\n") else out + "\n")
    else:
        print(out)
    return EXIT_OK


def _cmd_checkdcc(args) -> int:
    elab = load_file(args.file)
    ok, lines = verify_dcc(elab, args.budget)
    for line in lines:
        print(line)
    if not ok:
        raise DefunccError("label file failed to check")
    return EXIT_OK


def _cmd_eval(args) -> int:
    elab = load_file(args.file)
    term = _require_main(elab)
    if Path(args.file).suffix == ".dcc":
        dcc_infer(elab.labels, elab.ctx, term, args.budget)
        print(show_term(dcc_normalize(elab.labels, term, args.budget)))
        return EXIT_OK
    _check_source(elab, args.budget)
    if args.target == "dcc":
        res = defun(elab.ctx, term, args.budget)
        print(show_term(dcc_normalize(res.labels, res.term, args.budget)))
    else:
        cc_infer(elab.ctx, term, args.budget, check_ctx=False)
        print(show_term(cc_normalize(term, args.budget)))
    return EXIT_OK


def _cmd_refun(args) -> int:
    elab = load_file(args.file)
    term = _require_main(elab)
    back_ctx, back = refun(elab.labels, elab.ctx, term, args.budget)
    ctx_text = show_ctx(back_ctx)
    if ctx_text:
        print(ctx_text)
    print(show_term(back))
    return EXIT_OK


def _cmd_verify(args) -> int:
    ok, lines = verify_path(args.path, args.budget)
    for line in lines:
        print(line)
    if not ok:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defuncc",
        description="Typecheck, defunctionalize, evaluate, and verify programs.",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"reduction step budget (default {DEFAULT_BUDGET})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a source file, print the main type")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("defun", help="translate a source file to label form")
    p.add_argument("file")
    p.add_argument("--emit", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(func=_cmd_defun)

    p = sub.add_parser("checkdcc", help="typecheck a label-form (.dcc) file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_checkdcc)

    p = sub.add_parser("eval", help="normalize the main term")
    p.add_argument("file")
    p.add_argument("--target", choices=("cc", "dcc"), default="cc")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("refun", help="translate a label-form file back")
    p.add_argument("file")
    p.set_defaults(func=_cmd_refun)

    p = sub.add_parser("verify", help="run all metatheory checks on a file or directory")
    p.add_argument("path")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DefunccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except RecursionError:
        print(
            "error: input nests too deeply to check (recursion limit reached)",
            file=sys.stderr,
        )
        return EXIT_TYPE


if __name__ == "__main__":
    sys.exit(main())
