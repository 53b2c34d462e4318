"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/parse problems exit 2,
invariant failures exit 1, warnings exit 0.
"""


class CubedimError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CubedimError):
    """Invalid parameters, e.g. the 12*C0*delta <= c0 constraint is violated."""


class InvalidArgumentError(CubedimError):
    """Bad operation argument: unknown point id, empty subset, level out of range."""


class PointsFileError(ConfigurationError):
    """Malformed points file; message carries a field/position diagnostic."""


class StaleCubesError(ConfigurationError):
    """Cube-system file does not match the points file it was built from."""


class DegenerateBallError(CubedimError):
    """Ball contains fewer than two distinct points; covering queries are trivial there."""


class ScaleExhaustedError(CubedimError):
    """Requested level is below the deepest level the system resolves."""

    def __init__(self, message, deepest_available=None):
        super().__init__(message)
        self.deepest_available = deepest_available


class InsufficientScalesError(CubedimError):
    """Too few usable scales for a fit; message names the binding constraint."""


class SizeCapError(CubedimError):
    """Generator spec would produce more points than the hard cap."""
