"""Exception types shared across the package."""


class PntapError(Exception):
    """Base class for all package errors."""


class DomainError(PntapError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(PntapError, ValueError):
    """An input object violates a structural invariant."""


class ParseError(PntapError, ValueError):
    """A data file could not be parsed.

    Carries the 1-based line number of the offending line.  args holds
    (message, line_number), so a pickled error rebuilds unchanged.
    """

    def __init__(self, message, line_number):
        super().__init__(message, line_number)
        self.line_number = line_number

    def __str__(self):
        return f"line {self.line_number}: {self.args[0]}"


class CoverageError(PntapError, ValueError):
    """A zero table does not extend high enough to certify the requested sum."""


class ConvergenceError(PntapError, ArithmeticError):
    """Adaptive integration exhausted its subdivision budget.

    The best available estimate and its error bound are attached so callers
    can decide whether the partial answer is usable.
    """

    def __init__(self, message, best_value, error_estimate):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate
