"""Exception types shared across the package.

Each class is raised somewhere in the package or is a base of one that
is (``test_hygiene.test_error_classes_are_raised``).
"""


class GsiError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GsiError, ValueError):
    """Operands live in different ambient dimensions."""


class InvalidIndexSet(GsiError, ValueError):
    """A coordinate index set is empty, duplicated, or out of range."""


class ValidationError(GsiError, ValueError):
    """A representation failed axiom validation.  Carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class SoundnessError(GsiError, RuntimeError):
    """An internal consistency assertion failed.  Always an implementation bug,
    never expected on valid inputs."""


class ParseError(GsiError, ValueError):
    """Syntax error in a GSI file.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
