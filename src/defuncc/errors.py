"""Error taxonomy shared by the checkers, the translations, and the CLI."""

from __future__ import annotations

from .syntax import Term


class DefunccError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DefunccError):
    """Source text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


# What a file that cannot be read (missing, a directory, not UTF-8), written or
# parsed raises
INPUT_ERRORS = (ParseError, OSError, UnicodeDecodeError)


def input_error_message(exc: Exception) -> str:
    """The one-line report of an input error."""
    if isinstance(exc, ParseError):
        return f"parse error: {exc}"
    if isinstance(exc, UnicodeDecodeError):
        return f"error: input is not UTF-8 text ({exc})"
    return f"error: {exc}"


class NestingTooDeep(DefunccError):
    def __init__(self) -> None:
        super().__init__("input nests too deeply to check (recursion limit reached)")


class TypeCheckError(DefunccError):
    """Base class for judgement failures in any of the calculi."""


def _text(t: Term) -> str:
    """t as surface text.  The failures that name terms keep them and print
    them only when their message is read (a search that drops its failures
    prints none); `surface` imports this module, so it is imported here."""
    from .surface import show_term

    return show_term(t)


class UnboundVariable(TypeCheckError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class NotAFunction(TypeCheckError):
    """An application whose head `fn` has type `fn_type`, no function type."""

    def __init__(self, fn: Term, fn_type: Term):
        super().__init__(fn, fn_type)

    def __str__(self) -> str:
        fn, fn_type = self.args
        return f"application head is not a function: {_text(fn)} has type {_text(fn_type)}"


class TypeMismatch(TypeCheckError):
    def __init__(self, expected: Term, actual: Term, where: str = ""):
        super().__init__(expected, actual, where)

    @property
    def expected(self) -> str:
        return _text(self.args[0])

    @property
    def actual(self) -> str:
        return _text(self.args[1])

    def __str__(self) -> str:
        where = self.args[2]
        suffix = f" in {where}" if where else ""
        return f"type mismatch{suffix}: expected {self.expected}, got {self.actual}"


class NotAType(TypeCheckError):
    """`subject` has type `ty`, no universe; with no `ty`, the subject's
    constructor is not part of the `calculus` calculus."""

    def __init__(self, subject: Term, ty: Term | None = None, calculus: str = ""):
        super().__init__(subject, ty, calculus)

    def __str__(self) -> str:
        subject, ty, calculus = self.args
        detail = (
            f"constructor not part of the {calculus} calculus: {_text(subject)}"
            if ty is None
            else f"{_text(subject)} has type {_text(ty)}"
        )
        return f"expected a type (a term of some universe): {detail}"


class AnnotationMismatch(TypeCheckError):
    def __init__(self, name: str, body_type: Term, annotation: Term):
        super().__init__(name, body_type, annotation)

    @property
    def body_type(self) -> str:
        return _text(self.args[1])

    def __str__(self) -> str:
        name, _, annotation = self.args
        return f"def {name}: body has type {self.body_type}, annotation says {_text(annotation)}"


class UnknownLabel(TypeCheckError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"label {label} is not declared in the label context")


class ClosureArity(TypeCheckError):
    def __init__(self, label: str, expected: int, actual: int):
        super().__init__(
            f"label {label} expects {expected} closure argument(s), got {actual}"
        )


class ClosureTypeMismatch(TypeCheckError):
    def __init__(self, label: str, index: int, expected: Term, actual: Term):
        super().__init__(label, index, expected, actual)

    def __str__(self) -> str:
        label, index, expected, actual = self.args
        return (
            f"closure argument {index} of {label}: "
            f"expected {_text(expected)}, got {_text(actual)}"
        )


class LabelClash(TypeCheckError):
    def __init__(self, label: str):
        super().__init__(
            f"label {label} declared twice with structurally different definitions"
        )


class IllFormedContext(TypeCheckError):
    """A type context or label context fails its formation rules."""


class StepBudgetExceeded(DefunccError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"reduction exceeded the step budget of {budget}")


class DiagramFailure(DefunccError):
    """An edge of the reduction-preservation diagram failed to commute."""

    def __init__(self, edge: str, detail: str):
        self.edge = edge
        super().__init__(f"diagram edge {edge} failed: {detail}")
