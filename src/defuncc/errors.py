"""Error taxonomy shared by the checkers, the translations, and the CLI."""

from __future__ import annotations


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


class UnboundVariable(TypeCheckError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class NotAFunction(TypeCheckError):
    def __init__(self, detail: str):
        super().__init__(f"application head is not a function: {detail}")


class TypeMismatch(TypeCheckError):
    def __init__(self, expected: str, actual: str, where: str = ""):
        self.expected = expected
        self.actual = actual
        suffix = f" in {where}" if where else ""
        super().__init__(f"type mismatch{suffix}: expected {expected}, got {actual}")


class NotAType(TypeCheckError):
    def __init__(self, detail: str):
        super().__init__(f"expected a type (a term of some universe): {detail}")


class AnnotationMismatch(TypeCheckError):
    def __init__(self, name: str, body_type: str, annotation: str):
        self.body_type = body_type
        super().__init__(f"def {name}: body has type {body_type}, annotation says {annotation}")


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
    def __init__(self, label: str, index: int, expected: str, actual: str):
        super().__init__(
            f"closure argument {index} of {label}: expected {expected}, got {actual}"
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
