"""Exception types shared across the package."""


class NoiseStabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NoiseStabError, ValueError):
    """Shape or length of an array does not match what an operation requires."""


class InvalidStateError(NoiseStabError, RuntimeError):
    """An operation was called on an object in a state that cannot support it."""


class DataError(NoiseStabError, ValueError):
    """A dataset, file, or value fails a content-level validation."""


class NonFiniteError(DataError):
    """A computed value is NaN or infinite, e.g. after training diverged."""


class FormatError(DataError):
    """A binary or text file does not conform to its declared format."""


class ConfigError(NoiseStabError, ValueError):
    """An experiment configuration or request is invalid."""
