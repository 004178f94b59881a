"""Exception types shared across the package, and the type rules of its
configuration dataclasses.

Every invalid input, from a configuration file or from a library call,
raises ``ValidationError``; the CLI maps each type to its exit code.
``check_fields`` checks each field of a configuration dataclass by the
rule of its annotation, so a field states its type, and its bounds
(``Annotated[X, Interval(...)]``, such as ``Count`` or ``Ratio``), once.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import reprlib
import types
import typing


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


#: The form of an offending value in a message: its repr, three levels
#: deep, three items a container and 40 characters a scalar at most.
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 3
_SHOWN.maxtuple = _SHOWN.maxlist = _SHOWN.maxdict = _SHOWN.maxset = _SHOWN.maxfrozenset = 3
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 40
_NOTHING = object()


class ValidationError(ParamodelError, ValueError):
    """An input is invalid: a configuration value, parameters, an event,
    an input vector or a weight index.

    ``key`` names the offending configuration entry when known, else None;
    ``message`` is the text without it.  ``got``, when given, is the
    offending value: the message ends in ``, got`` and its bounded repr.
    """

    def __init__(self, message: str, key: str | None = None, got=_NOTHING):
        if got is not _NOTHING:
            message = f"{message}, got {_SHOWN.repr(got)}"
        self.message = message
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)
        self.key = key


class Interval(typing.NamedTuple):
    """The bounds of an ``Annotated[X, Interval(...)]`` value: ``low <= x``
    (``low < x`` if ``open``) and ``x <= high``."""

    low: float
    open: bool = False
    high: float = math.inf

    def __str__(self):
        text = f"{'>' if self.open else '>='} {self.low}"
        return text if self.high == math.inf else f"{text} and <= {self.high}"


#: The bounds the package's fields and arguments take.
Count = typing.Annotated[int, Interval(1)]
Index = typing.Annotated[int, Interval(0)]
NonNegative = typing.Annotated[float, Interval(0)]
Positive = typing.Annotated[float, Interval(0, open=True)]
Ratio = typing.Annotated[float, Interval(0, open=True, high=1)]


def check_fields(obj) -> None:
    """Check every init field of the dataclass ``obj`` by the rule of its
    annotation (see ``rule``), storing the value the rule returns.

    Raises ValidationError whose ``key`` is the field name.  The rules of a
    class are resolved once, at its first instance.
    """
    for name, check in _rules(type(obj)):
        value = getattr(obj, name)
        stored = check(value, name)
        if stored is not value:
            object.__setattr__(obj, name, stored)


@functools.cache
def field_types(cls) -> dict:
    """{field name: annotation} of each init field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls) if f.init}


@functools.cache
def _rules(cls) -> tuple:
    return tuple((name, rule(tp)) for name, tp in field_types(cls).items())


@functools.cache
def rule(tp):
    """The check of annotation ``tp``: ``rule(tp)(value, key)`` returns the
    value to store or raises ValidationError(key=key).

    - ``float``: a finite number, not a bool; an int is stored as a float.
    - ``int``: an int, not a bool.
    - ``str``, ``bool``, a dataclass: an instance of it.
    - ``tuple[X, ...]``: a list or tuple, each item checked by X's rule
      under the same key, stored as a tuple.
    - ``X | None``: None, or a value of X.
    - ``Annotated[X, Interval(...)]``: a value of X within the interval
      (``must be >= 1``, ``must be > 0 and <= 1``).

    Any other annotation is a TypeError, so no field goes unchecked.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        check = rule(args[args[0] is type(None)])
        return lambda value, key: None if value is None else check(value, key)
    if origin is typing.Annotated and len(args) == 2 and isinstance(args[1], Interval):
        return functools.partial(_within, rule(args[0]), args[1])
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return functools.partial(_tuple, rule(args[0]))
    if tp is float:
        return _float
    if tp in _NAMES or dataclasses.is_dataclass(tp):
        return functools.partial(_instance, tp, _NAMES.get(tp) or f"a {tp.__name__}")
    raise TypeError(f"no type rule for the annotation {tp!r}")


def number(value, key):
    """``value`` as a float: an int or a float, inf and nan included, but
    not a bool.  Else raises ValidationError(key=key)."""
    as_float = _as_float(value)
    if as_float is None:
        raise ValidationError("must be a number", key, got=value)
    return as_float


def _as_float(value):
    if type(value) is float:
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):  # an int or a float subclass
        try:
            return float(value)
        except OverflowError:  # an int beyond float range
            pass
    return None


def _float(value, key):
    as_float = _as_float(value)
    if as_float is not None and as_float - as_float == 0.0:
        return as_float
    raise ValidationError("must be a finite number", key, got=value)


_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def _instance(cls, name, value, key):
    # a bool is an int, but not as a field's value
    if isinstance(value, cls) and (cls is bool or not isinstance(value, bool)):
        return value
    raise ValidationError(f"must be {name}", key, got=value)


def _within(check, interval, value, key):
    value = check(value, key)
    low, is_open, high = interval
    if (low < value if is_open else low <= value) and value <= high:
        return value
    raise ValidationError(f"must be {interval}", key, got=value)


def _tuple(item, value, key):
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"must be a list, got {type(value).__name__}", key)
    return tuple([item(v, key) for v in value])
