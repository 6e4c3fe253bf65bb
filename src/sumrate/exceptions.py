"""Exception types shared across the package."""

__all__ = [
    "SumrateError",
    "ReducibleMatrixError",
    "ConvergenceError",
    "InfeasibleWeightError",
    "InfeasibleSirError",
    "ScenarioError",
]


class SumrateError(Exception):
    """Base class for all library errors."""


class ReducibleMatrixError(SumrateError, ValueError):
    """Matrix is reducible where an irreducible one is required."""


class ConvergenceError(SumrateError, RuntimeError):
    """An iteration failed to reach its tolerance within the budget."""

    def __init__(self, message, *, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InfeasibleWeightError(SumrateError, ValueError):
    """Prescribed Perron weights violate the majorization condition."""

    def __init__(self, message, *, index=None):
        super().__init__(message)
        self.index = index


class InfeasibleSirError(SumrateError, ValueError):
    """SIR target lies outside the achievable region."""

    def __init__(self, message, *, radius=None):
        super().__init__(message)
        self.radius = radius


class ScenarioError(SumrateError, ValueError):
    """Scenario or report file violates the schema."""
