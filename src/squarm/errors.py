"""Exception hierarchy shared across the package, one class per thing a
caller can fix, and checked, the one check of a setting against its Key.

Catch SquarmError for any failure the library reports. Below it, catch
TopologyError to change the graph (its .arg names the builder argument),
ParameterError to change a function argument, DataError to change the
dataset, ConfigError to change a run configuration (its message starts with
the key), and DivergenceError to change a run that blew up (its .partial holds
the outputs so far).
"""

import math
from dataclasses import dataclass
from functools import cache


class SquarmError(Exception):
    """Base class for all package errors."""


class TopologyError(SquarmError):
    """Invalid graph or mixing-matrix construction parameters: a bad node
    count, edge, weight or self-weight; a weight matrix that is not symmetric,
    has negative entries or rows/columns that do not sum to one; a
    disconnected graph; a spectral gap that is not positive.

    arg names the builder argument to change, where there is one.
    """

    def __init__(self, message, arg=None):
        super().__init__(message)
        self.arg = arg


class ParameterError(SquarmError, ValueError):
    """An argument a library function cannot work with: a value outside its
    admissible range (checked's message for a field with a Key starts with
    the field name) or an unknown kind; an input vector with non-finite
    entries; a message that does not match the compressor spec or dimension
    it is priced under; a matrix the eigensolver fails on or one smaller
    than 2 x 2; a singular curvature matrix, which has no closed-form
    optimum."""


class DataError(SquarmError):
    """A dataset that cannot be used: a file that cannot be read, holds too
    few columns or values that are not finite or overflow; an empty dataset,
    more nodes than samples, or a node left without local samples."""


class ConfigError(SquarmError):
    """A run configuration is malformed.

    The message names the offending key where possible.
    """


class DivergenceError(SquarmError):
    """The loss became non-finite during a run.

    Carries the partial result accumulated so far in ``.partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


UNSET = None  # the default of settings that are absent unless set


@dataclass(frozen=True)
class Key:
    """A setting's rule: its type, its default and its valid values."""

    type: type  # int, float, bool, str or list
    default: object = UNSET
    valid: str | tuple[str, ...] = ""  # an interval such as "(0, 1]", or the choices


def checked(name: str, value, rule: Key, error: type[SquarmError] = ParameterError):
    """value as rule.type and within its interval rule.valid, if it has one;
    an error (a ParameterError unless given) that starts with name if not.

    Integers accept integral floats and digit strings, numbers must be
    within the float range, booleans accept true/false and 1/0, lists
    accept lists."""
    kind = rule.type
    if kind in (str, list):
        if isinstance(value, str if kind is str else (list, tuple)):
            return value
        raise _expected(kind, name, value, error)
    if kind is bool:
        if value not in (0, 1) or isinstance(value, str):
            raise _expected(kind, name, value, error)
    elif isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise _expected(kind, name, value, error)
    try:
        out = kind(value)
        finite = math.isfinite(out)  # an int past the float range overflows here
    except (TypeError, ValueError, OverflowError):
        raise _expected(kind, name, value, error) from None
    if not finite:
        raise _expected(kind, name, value, error)
    if rule.valid:
        lo, hi, lo_open, hi_open = _interval(rule.valid)
        if not ((lo < out if lo_open else lo <= out) and (out < hi if hi_open else out <= hi)):
            raise error(f"{name}: must be in {rule.valid}, got {out!r}")
    return out


@cache
def _interval(text: str) -> tuple[float, float, bool, bool]:
    """"(0, 1]" as (0.0, 1.0, True, False): the bounds and whether each is open."""
    lo, hi = text[1:-1].split(",")
    return float(lo), float(hi), text[0] == "(", text[-1] == ")"


def _expected(kind: type, name: str, value, error: type[SquarmError]) -> SquarmError:
    """checked's error for a value that is not a kind; formatted only when it
    is raised, since the repr of a long edge list costs more than the check."""
    return error(f"{name}: expected {'a finite number' if kind is float else kind.__name__}, got {value!r}")
