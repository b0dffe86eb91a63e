"""Exception types shared across the package."""


class OscprobeError(Exception):
    """Base class for all package errors."""


class ValidationError(OscprobeError, ValueError):
    """A value violates a domain constraint at construction or call time."""


class TruncationLeakError(OscprobeError):
    """Truncated number basis is too small for the requested state or evolution.

    Carries ``suggested_dim``, a basis size expected to pass the leak check,
    and ``weight``, the relative top-level weight that tripped it.
    """

    def __init__(self, message: str, suggested_dim: int | None = None,
                 weight: float | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim
        self.weight = weight


class DegenerateInputError(OscprobeError, ValueError):
    """Input data cannot determine the requested quantities."""


class ConfigError(OscprobeError, ValueError):
    """Invalid configuration file content or CLI argument combination."""
