"""Exception types shared across the package."""

from __future__ import annotations


class PrefnetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PrefnetError, ValueError):
    """An input file or value is malformed or violates a constructor's check."""


class ParseError(PrefnetError):
    """Syntax or name-resolution error with a source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        if self.col is None:
            return f"line {self.line}: {self.message}"
        return f"line {self.line}, col {self.col}: {self.message}"


class UnknownNameError(PrefnetError):
    """An identifier is not declared in the expected namespace."""


class EvaluationError(PrefnetError):
    """A concept or axiom cannot be evaluated in the given context."""


class UnsupportedAxiomError(PrefnetError):
    """The axiom kind is handled by a different checker."""


class FragmentError(PrefnetError):
    """The input lies outside the language fragment an operation supports."""


class EnumerationLimitError(PrefnetError):
    """Canonical-model enumeration would exceed the concept-name budget."""


class NonConvergenceError(PrefnetError):
    """A recurrent network failed to reach a stationary state.

    ``iterations`` synchronous updates ran for ``stimulus``, and the
    largest activity change in the last one was ``last_delta``.
    """

    def __init__(self, stimulus: str, iterations: int, last_delta: float):
        self.stimulus = stimulus
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"no stationary state for stimulus {stimulus!r} within {iterations}"
            f" iterations; the last one changed an activity by {last_delta!r}"
        )


class ActivationPreconditionError(PrefnetError):
    """A verification routine requires activation properties the network lacks."""

    def __init__(self, message: str, units: list[str]):
        self.units = units
        super().__init__(message)


class UndefinedConditionalError(PrefnetError):
    """Conditional probability with a zero-probability conditioning event."""


class UndefinedSubsethoodError(PrefnetError):
    """Subsethood degree with an empty (zero-cardinality) left argument."""
