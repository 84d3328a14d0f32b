"""Exception hierarchy shared across the package."""


class SquarmError(Exception):
    """Base class for all package errors."""


class TopologyError(SquarmError):
    """Invalid graph or mixing-matrix construction parameters.

    arg names the builder argument to change, where there is one.
    """

    def __init__(self, message, arg=None):
        super().__init__(message)
        self.arg = arg


class ConnectivityError(TopologyError):
    """The communication graph is not connected."""


class StochasticityError(TopologyError):
    """A row or column of the weight matrix does not sum to one."""


class SymmetryError(TopologyError):
    """The weight matrix is not symmetric."""


class NumericalError(SquarmError):
    """An underlying numerical routine failed to converge."""


class ParameterError(SquarmError, ValueError):
    """An argument is outside its admissible range."""


class DomainError(SquarmError, ValueError):
    """An input vector contains non-finite entries."""


class ContractError(SquarmError):
    """A message or payload does not match the spec it claims to follow."""


class DataError(SquarmError):
    """A node has no usable local data."""


class PartitionError(SquarmError):
    """A dataset cannot be split as requested."""


class NoOptimumError(SquarmError):
    """The closed-form optimum does not exist (singular system)."""


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
