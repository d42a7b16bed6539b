"""Exception types shared across the package.

Every one is an ``SdeDensityError``, and the CLI exits 2 on any of them.
"""


class SdeDensityError(Exception):
    """Base class for all package errors."""


class ConfigError(SdeDensityError, ValueError):
    """The config or a time is wrong: bad piece specs, window invariants, grid
    mismatches, times off the simulation grid, Nyquist violations."""


class DomainError(SdeDensityError, ValueError):
    """An argument is outside the mathematical domain of an operation, such as a
    query point outside the invertible range."""


class NumericsError(SdeDensityError, RuntimeError):
    """A numerical routine failed to reach its tolerance, or a path produced a
    non-finite state."""
