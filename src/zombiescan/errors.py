"""Exception types shared across the package, and their checks' integer test."""

import numbers


def _integral(value) -> bool:  # a numpy integer too, but no bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ValidationError(ValueError):
    """Invalid argument or inconsistent input data."""


class ParseError(ValidationError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CacheError(RuntimeError):
    """Unreadable or incompatible binary graph cache."""
