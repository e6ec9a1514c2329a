"""Exception types shared across the package."""


class BdpError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(BdpError, ValueError):
    """Inputs of incompatible dimensions."""


class OutOfRegionError(BdpError):
    """A map was evaluated outside its declared validity region."""

    def __init__(self, point, step=None):
        self.point = point
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"evaluation outside validity region{where}: {point}")


class RegularityError(BdpError):
    """A curve tangent vanished at a sample point."""


class HypothesisViolationError(BdpError):
    """A theorem hypothesis fails at a specific point or step."""

    def __init__(self, message, step=None):
        self.step = step
        super().__init__(message)


class ConfigError(BdpError, ValueError):
    """Invalid experiment configuration."""
