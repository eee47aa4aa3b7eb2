"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "TurnpikeError",
    "ModelError",
    "QuadratureError",
    "RootError",
    "EntryExitError",
    "IntegrationError",
    "ChartError",
]


class TurnpikeError(Exception):
    """Base class for all package errors."""


class ModelError(TurnpikeError):
    """Invalid model definition or model file."""


class QuadratureError(TurnpikeError):
    """Quadrature did not converge or hit a precondition guard."""


class RootError(TurnpikeError):
    """Bracketed root solve failed (no sign change, NaN, no convergence)."""


class EntryExitError(TurnpikeError):
    """Entry-exit solve failed (no bracket, degenerate data, no return)."""


class ChartError(TurnpikeError):
    """Blow-up chart computation outside its domain of validity."""


class IntegrationError(TurnpikeError):
    """Time integration aborted; carries the last state for diagnosis."""

    def __init__(self, message: str, *, t: float | None = None,
                 state: tuple[float, float] | None = None,
                 status: str = "error"):
        super().__init__(message)
        self.t = t
        self.state = state
        self.status = status
