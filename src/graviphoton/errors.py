"""Exception types shared across the library.

Two broad families matter for callers: :class:`DomainError` covers inputs
outside the supported physical or structural domain, :class:`NumericalError`
covers computations that failed to reach the requested accuracy.  The command
line maps these families to distinct exit codes.
"""


class GraviphotonError(Exception):
    """Base class for every error raised by this package."""


class ConfigParseError(GraviphotonError):
    """A scenario config file could not be read or decoded."""


class DomainError(GraviphotonError):
    """An argument lies outside the supported physical domain."""


class HorizonError(DomainError):
    """A radius is at or inside the gravitational horizon guard band."""


class OrbitDomainError(DomainError):
    """A circular orbit radius is at or below the innermost allowed value."""


class NormalizationError(DomainError):
    """A spectral profile is not unit normalized within tolerance."""


class DimensionMismatch(DomainError):
    """Operands have incompatible mode counts or shapes."""


class NumericalError(GraviphotonError):
    """A numerical routine failed to reach the requested accuracy."""


class NonPhysicalState(NumericalError):
    """A covariance matrix violates the uncertainty bound."""
