"""Exception hierarchy shared across the toolchain."""
from __future__ import annotations


class SpecError(Exception):
    """Base class for every error raised by this package."""


class ClauseSyntaxError(SpecError):
    """A clause or expression failed to parse.

    Carries the byte offset of the offending token and, when known, a hint
    describing what the parser expected there.
    """

    def __init__(self, message: str, offset: int | None = None, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        detail = message
        if offset is not None:
            detail = f"{message} (at offset {offset})"
        if expected is not None:
            detail = f"{detail}; expected {expected}"
        super().__init__(detail)


class TypeMismatch(SpecError):
    """Clause kind and expression type disagree (e.g. a boolean decreases)."""


class AnchorNotFound(SpecError):
    """A clause anchor does not resolve in the program source."""


class ExtractionError(SpecError):
    """Aggregate of per-line problems found while extracting annotations.

    ``issues`` is a list of (line_number, message) pairs, one per bad line;
    extraction collects everything rather than failing on the first problem.
    """

    def __init__(self, issues: list[tuple[int, str]]):
        self.issues = list(issues)
        summary = "; ".join(f"line {line}: {msg}" for line, msg in self.issues)
        super().__init__(f"annotation extraction failed: {summary}")


class EvalError(SpecError):
    """Base class for trace-evaluation failures."""


class UnboundVariable(EvalError):
    pass


class IndexOutOfRange(EvalError):
    pass


class UnboundedQuantifier(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


class MissingOldSnapshot(EvalError):
    pass


class EvalTypeError(EvalError):
    """Operand types do not fit the operator (bool where int expected, ...)."""


class UnknownClause(SpecError):
    """A clause id is not known to the selection state."""


class VerifierUnavailable(SpecError):
    """The verifier adapter cannot run at all (as opposed to a verdict)."""


class CommandNotFound(VerifierUnavailable):
    pass


class ScriptExhausted(SpecError):
    """A scripted component ran out of canned entries."""


class EndpointError(SpecError):
    """The chat endpoint failed after exhausting retries."""


class InsufficientShots(SpecError):
    """The example corpus is smaller than the configured shot count."""


class ConfigError(SpecError):
    """Configuration file is malformed or contains unknown/invalid keys."""
