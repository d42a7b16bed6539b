"""Exception types shared across the package."""


class SdeDensityError(Exception):
    """Base class for all package errors."""


class ConfigError(SdeDensityError, ValueError):
    """Invalid configuration: bad piece specs, grid mismatches, Nyquist violations."""


class ValidationError(SdeDensityError, ValueError):
    """A model/window invariant failed a validation check."""


class DomainError(SdeDensityError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class RangeError(SdeDensityError, ValueError):
    """A query point is outside the configured invertible range."""


class AlignmentError(ConfigError):
    """A time does not lie on the simulation grid."""


class NumericsError(SdeDensityError, RuntimeError):
    """A numerical routine failed to reach its tolerance."""


class SimulationError(SdeDensityError, RuntimeError):
    """A path produced a non-finite state."""
