"""Exception hierarchy shared across the package.

Each error class maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class WsgatError(Exception):
    """Base class for all package errors."""


class ConfigError(WsgatError, ValueError):
    """Unknown key or malformed value in a training config."""


class GraphParseError(WsgatError):
    """Malformed edge-list input; carries path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class EmptyGraphError(WsgatError):
    """Input produced zero edges."""


class SamplingExhaustedError(WsgatError):
    """Negative sampling could not find enough non-edges."""


class DegenerateTaskError(WsgatError):
    """Task is undefined on this graph (e.g. sign prediction on an all-positive graph)."""


class ShapeError(WsgatError):
    """Tensor shape mismatch."""


class NumericFault(WsgatError):
    """NaN or Inf appeared in a tensor value or gradient."""


class ConvergenceError(WsgatError):
    """Iterative solver did not reach tolerance within its iteration budget.

    residual is the largest relative residual left, inf when the solver does
    not report one (ARPACK returns only the converged pairs).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UndefinedMetricError(WsgatError):
    """Metric is undefined for the given inputs (e.g. single-class ROC AUC)."""
