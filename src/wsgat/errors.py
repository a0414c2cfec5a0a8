"""Exception hierarchy shared across the package.

cli.EXIT_CODES maps the classes a run can meet to exit codes, several to one
(2 for bad input); ShapeError, a programming error, has no code of its own.
"""


class WsgatError(Exception):
    """Base class for all package errors."""


class ConfigError(WsgatError, ValueError):
    """Unknown key or malformed value in a training config."""


class GraphParseError(WsgatError):
    """Malformed edge-list input; carries path and line number (None when
    the fault is not on one line, e.g. a file that is not UTF-8)."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}: {message}" if lineno is None
                         else f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


class GraphWriteError(WsgatError, ValueError):
    """A graph that an edge-list format cannot hold so that it reads back the
    same, e.g. a node label with a tab in tsv3."""


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
    """Iterative solver did not reach tolerance within its iteration budget."""


class UndefinedMetricError(WsgatError):
    """Metric is undefined for the given inputs (e.g. single-class ROC AUC)."""
