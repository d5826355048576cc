"""Exception hierarchy shared by all modules.

``exit_code`` is what the CLI returns when the error escapes: 2 for
configuration/contract problems, 1 for runtime or numeric failures.
"""


class NpgdError(Exception):
    exit_code = 1


class ShapeError(NpgdError):
    """Operands have incompatible shapes."""

    exit_code = 2


class DimensionError(NpgdError):
    """A dimension violates a structural requirement (power of two, parity, ...)."""

    exit_code = 2


class ParameterError(NpgdError):
    """A parameter value is outside its documented range."""

    exit_code = 2


class ConfigError(ParameterError):
    """An experiment configuration is malformed or inconsistent."""


class ContractError(NpgdError):
    """An operation was invoked outside its contract."""

    exit_code = 2


class UnsupportedConfigError(ContractError):
    """The requested operation does not support this model configuration."""


class FormatError(NpgdError):
    """A persisted file has the wrong magic, version, or layout."""

    exit_code = 2


class CorruptionError(NpgdError):
    """A persisted file is truncated or fails its checksum."""


class SolverError(NpgdError):
    """An iterative solver diverged."""


class NumericsError(NpgdError):
    """A numeric invariant broke at runtime (NaN loss, ...)."""


class UndefinedMetricError(NpgdError):
    """A metric is undefined for these inputs (zero reference, zero range)."""
