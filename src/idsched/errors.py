"""Exception hierarchy shared across the package."""


class SchedulingError(Exception):
    """Base class for all idsched-specific errors."""


class ConfigError(SchedulingError):
    """Invalid experiment or instance configuration."""


class StructuralError(SchedulingError):
    """An internal structural assumption failed (e.g. an undecidable state)."""
