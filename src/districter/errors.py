"""Exception types shared across the package."""


class DistricterError(Exception):
    """Base class for all districter errors."""


class InstanceError(DistricterError):
    """Malformed instance or plan data (bad file, disconnected graph, ...)."""


class GeometryError(InstanceError):
    """Degenerate or unsupported geometry."""


class EvaluationError(DistricterError):
    """Objective undefined for the given plan (e.g. a zero-capacity territory)."""


class ConfigError(DistricterError):
    """Invalid algorithm or run configuration."""


class NoFeasibleFlip(DistricterError):
    """No boundary node can be moved between territories."""


class InternalError(DistricterError):
    """An invariant the algorithms rely on was violated; indicates a bug."""
