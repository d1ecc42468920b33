"""Exception types shared across the package.

A caller's value that a rule of the package refuses is a
``ConfigError``.  Three such values: all-zero input to ``jain_index``,
which ``fairness.improvement_indices`` never passes, since it clamps
negative improvements to zero and tests for the all-zero pair itself;
a NaN or infinite input to the fairness indices, which
``improvement_indices`` passes on rather than clamping; and roles with
players but no resource, which ``route_requests`` refuses.
"""


class GameclustError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(GameclustError, ValueError):
    """Invalid configuration or argument value."""


class StructuralError(GameclustError, ValueError):
    """Structurally inconsistent inputs (shape/dimension mismatches, bad assignments)."""


class TensorTooLargeError(GameclustError, ValueError):
    """A local game whose payoff tensor would exceed the size limit."""


class CsvFormatError(GameclustError, ValueError):
    """A data file could not be parsed."""
