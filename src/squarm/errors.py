"""Exception hierarchy shared across the package: one class per thing a
caller can fix.

Catch SquarmError for any failure the library reports. Below it, catch
TopologyError to change the graph (its .arg names the builder argument),
ParameterError to change a function argument, DataError to change the
dataset, ConfigError to change a run configuration (its message starts with
the key), and DivergenceError to change a run that blew up (its .partial holds
the outputs so far).
"""


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
    admissible range or an unknown kind; an input vector with non-finite
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
