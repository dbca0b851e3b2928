"""Exception hierarchy shared across the package."""


class ClimblocError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ClimblocError):
    """Invalid configuration value or malformed config document."""


class MissingInputError(ClimblocError):
    """A required input file or prerequisite model is absent."""


class NumericalFailureError(ClimblocError):
    """A filter or training run lost numerical validity (non-PSD covariance, NaN loss)."""

