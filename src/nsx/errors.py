"""Exception types shared across the package.

Every error raised intentionally by nsx derives from NsxError so the CLI
can catch one type and turn it into a diagnostic instead of a traceback.
"""


class NsxError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(NsxError):
    """An algebraic operation left the supported fragment.

    Examples: dividing by a sum, pulling back an opaque function of a
    coordinate that the substitution rewrites to a non-coordinate.
    """


class EvaluationError(NsxError):
    """Numeric evaluation hit an unregistered opaque or a bad environment."""


class UnsupportedMetricError(NsxError):
    """Hodge star requested for a metric outside the supported class."""


class ParseError(NsxError):
    """Scenario source text failed to parse.

    Carries 1-based line/column plus a short description of what the
    parser expected at that spot.
    """

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ElaborationError(NsxError):
    """A parsed scenario refers to names or shapes that do not make sense.

    Raised while turning the AST into charts/forms/checks: unknown
    identifiers, dimension mismatches, a map used where a form is needed.
    """


class InternalError(Exception):
    """An unexpected exception, with the place it escaped from.

    Not an NsxError: it marks a defect of nsx, not of the input, and the
    CLI reports it with exit 3.  `where` names the scenario, and the check
    when one was running; `cause` is the original exception.
    """

    def __init__(self, where, cause):
        super().__init__(f"{where}: {cause!r}")
        self.where = where
        self.cause = cause
