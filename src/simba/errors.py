"""Exception types shared across the package."""


class SimbaError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SimbaError, ValueError):
    """Array shapes are incompatible with an operation's contract."""


class DomainError(SimbaError, ValueError):
    """A numeric argument is outside the mathematically valid domain."""


class ConfigError(SimbaError, ValueError):
    """A configuration value or combination is invalid."""


class FormatError(SimbaError, ValueError):
    """A binary container is malformed (bad magic, version, or truncation)."""


class ValidationError(SimbaError, ValueError):
    """Well-formed input with semantically invalid content."""


class TrainingAbort(SimbaError, RuntimeError):
    """Training stopped because of a non-finite loss or gradient."""


class GraphConsumedError(SimbaError, RuntimeError):
    """backward() reached a graph that an earlier backward() has consumed."""
