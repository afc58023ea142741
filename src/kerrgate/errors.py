"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a configuration document fails schema validation."""


class ResolutionError(ValueError):
    """Raised when a sampling grid is too coarse for the requested physics."""


class ThresholdNotFoundError(RuntimeError):
    """Raised when a bisection bracket contains no sign change.

    The ``side`` attribute records which end of the bracket failed:
    ``"low"`` means the rate is already non-positive at the lower end,
    ``"high"`` means the rate is still positive at the upper end.
    """

    def __init__(self, message: str, side: str):
        super().__init__(message)
        self.side = side
