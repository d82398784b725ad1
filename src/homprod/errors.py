"""Exception types shared across the package."""

from __future__ import annotations


class HomprodError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HomprodError, ValueError):
    """Operands have incompatible shapes or lengths."""


class ParameterError(HomprodError, ValueError):
    """An argument value violates a documented precondition."""


class PreconditionError(HomprodError, ValueError):
    """Structural requirement on the input object is not met."""


class BudgetError(HomprodError, RuntimeError):
    """A search would exceed its configured resource budget."""


class NoLogicalsError(HomprodError, ValueError):
    """The code has no logical qubits, so the request is undefined."""


class WitnessError(HomprodError, ValueError):
    """A claimed witness is not a nontrivial cycle of the claimed weight."""


class InvariantError(HomprodError, AssertionError):
    """An internal consistency check failed on valid input, which is a bug."""


class FormatError(HomprodError, ValueError):
    """A text payload does not conform to the expected file format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
