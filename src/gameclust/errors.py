"""Exception types shared across the package."""


class GameclustError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GameclustError, ValueError):
    """Invalid configuration or argument value."""


class StructuralError(GameclustError, ValueError):
    """Structurally inconsistent inputs (shape/dimension mismatches, bad assignments)."""


class InconsistentStateError(GameclustError, RuntimeError):
    """A role configuration that cannot arise from a consistent clustering."""


class TensorTooLargeError(GameclustError, ValueError):
    """A local game whose payoff tensor would exceed the size limit."""


class UndefinedIndexError(GameclustError, ValueError):
    """A fairness index is undefined for the given values."""


class CsvFormatError(GameclustError, ValueError):
    """A data file could not be parsed."""
