"""Shared exception types.

Every failure mode of the library maps onto one of these so callers can
distinguish bad inputs from numerical trouble without string matching.
"""

from __future__ import annotations

import numpy as np


class FairaggError(Exception):
    """Base class for all library errors."""


class InvalidDimensionError(FairaggError, ValueError):
    """A dimension is zero, negative, or mismatched between arguments."""


class DomainError(FairaggError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class DegenerateInputError(FairaggError, ValueError):
    """Input is structurally valid but degenerate (e.g. no observed entries)."""


class NumericalFailureError(FairaggError, ArithmeticError):
    """A non-finite value appeared where the computation requires finiteness."""


class NonConvergenceError(FairaggError, RuntimeError):
    """An iterative solver hit its iteration cap before meeting tolerance.

    Carries the best iterate found so callers can degrade gracefully.
    """

    def __init__(self, message: str, best_iterate: np.ndarray, residual: float):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual = residual


class DivergenceError(FairaggError, ArithmeticError):
    """No sampled client can be mixed, raised before any training when no
    feedback is finite; carries round context."""

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index


class ConfigError(FairaggError, ValueError):
    """A config failed to parse or validate; names the key or the library parameter."""
