"""Exception types shared across the package.

Every invalid input, from a configuration file or from a library call,
raises ``ValidationError``; the CLI maps each type to its exit code.
"""

from __future__ import annotations


class ParamodelError(Exception):
    """Base class for all package-specific errors."""


class DivergenceError(ParamodelError, ArithmeticError):
    """A simulated quantity became non-finite.

    Carries the iteration index at which the blow-up was detected, when
    the raising code knows it.
    """

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration


class ParseError(ParamodelError, ValueError):
    """Configuration text could not be parsed.

    ``line`` is the 1-based line number when known, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ParamodelError, ValueError):
    """An input is invalid: a configuration value, parameters, an event,
    an input vector or a weight index.

    ``key`` names the offending configuration entry when known, else None;
    ``message`` is the text without it.
    """

    def __init__(self, message: str, key: str | None = None):
        self.message = message
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key
