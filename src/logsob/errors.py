"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constructor parameter is outside its admissible range."""


class EvaluationError(ArithmeticError):
    """A pointwise evaluation produced a non-finite intermediate, or
    disagrees with the closed form it must equal.

    Carries the offending point in ``point``.
    """

    def __init__(self, message, point):
        super().__init__(message)
        self.point = point


class PreconditionError(RuntimeError):
    """A named precondition of a check or bound is not met."""

    def __init__(self, condition, message):
        super().__init__(f"precondition failed: {condition} ({message})")
        self.condition = condition


class EstimationError(RuntimeError):
    """A Monte Carlo estimate could not be formed (too few valid paths,
    degenerate payoff, non-normalizable density, ...)."""
