"""Shared exception types.

Errors that callers are expected to branch on get their own class; plain
argument validation raises ValueError directly at the call site.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Bad configuration or input data; maps to exit code 2."""


class TrajectoryParseError(ValueError):
    """Malformed trajectory CSV. `line` is the 1-based line number in the file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DivergenceError(RuntimeError):
    """Numerical blow-up. `time_reached` is how far the computation got."""

    def __init__(self, message: str, time_reached: float | None = None):
        super().__init__(message)
        self.time_reached = time_reached


class IterationLimitError(RuntimeError):
    """An iterative solver hit its sweep cap. Carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class UnsupportedKernelError(ValueError):
    """Operation not available for this kernel family."""
